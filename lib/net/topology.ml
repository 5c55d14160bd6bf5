(** Node placement and radio-range connectivity.

    Positions live in a rectangular field (metres).  Connectivity derives
    from a maximum link range, giving the geometric graphs over which the
    routing and lifetime experiments run. *)

type position = { x : float; y : float }

type t = {
  width_m : float;
  height_m : float;
  positions : position array;
}

let distance a b = Float.hypot (a.x -. b.x) (a.y -. b.y)

(* Every check is written so that a NaN fails it: a comparison with NaN
   is false, so [not (in range)] rejects it where [out of range] would
   let it through. *)
let of_positions ~width_m ~height_m positions =
  if not (Float.is_finite width_m && width_m > 0.0 && Float.is_finite height_m && height_m > 0.0)
  then invalid_arg "Topology.of_positions: non-positive or non-finite field";
  Array.iteri
    (fun i p ->
      if not (p.x >= 0.0 && p.x <= width_m && p.y >= 0.0 && p.y <= height_m) then
        invalid_arg (Printf.sprintf "Topology.of_positions: node %d outside field" i))
    positions;
  { width_m; height_m; positions }

(** [random rng ~nodes ~width_m ~height_m] — uniform random placement. *)
let random rng ~nodes ~width_m ~height_m =
  if nodes <= 0 then invalid_arg "Topology.random: non-positive node count";
  let positions =
    Array.init nodes (fun _ ->
        { x = Amb_sim.Rng.uniform rng 0.0 width_m; y = Amb_sim.Rng.uniform rng 0.0 height_m })
  in
  of_positions ~width_m ~height_m positions

(** [grid ~columns ~rows ~spacing_m] — regular grid, node 0 at the
    origin corner. *)
let grid ~columns ~rows ~spacing_m =
  if columns <= 0 || rows <= 0 then invalid_arg "Topology.grid: non-positive dimensions";
  if spacing_m <= 0.0 then invalid_arg "Topology.grid: non-positive spacing";
  let positions =
    Array.init (columns * rows) (fun i ->
        let c = i mod columns and r = i / columns in
        { x = Float.of_int c *. spacing_m; y = Float.of_int r *. spacing_m })
  in
  of_positions
    ~width_m:(Float.of_int (Stdlib.max 1 (columns - 1)) *. spacing_m)
    ~height_m:(Float.of_int (Stdlib.max 1 (rows - 1)) *. spacing_m)
    positions

(** [star ~leaves ~radius_m] — hub (node 0) surrounded by [leaves] nodes on
    a circle. *)
let star ~leaves ~radius_m =
  if leaves <= 0 then invalid_arg "Topology.star: non-positive leaf count";
  if radius_m <= 0.0 then invalid_arg "Topology.star: non-positive radius";
  let center = { x = radius_m; y = radius_m } in
  let positions =
    Array.init (leaves + 1) (fun i ->
        if i = 0 then center
        else
          let angle = 2.0 *. Float.pi *. Float.of_int (i - 1) /. Float.of_int leaves in
          { x = center.x +. (radius_m *. Float.cos angle);
            y = center.y +. (radius_m *. Float.sin angle) })
  in
  of_positions ~width_m:(2.0 *. radius_m) ~height_m:(2.0 *. radius_m) positions

let node_count topo = Array.length topo.positions
let position topo i = topo.positions.(i)
let pair_distance topo i j = distance topo.positions.(i) topo.positions.(j)

(** [spatial topo ~cell_m] — uniform-grid index over the node positions,
    cell edge ~[cell_m] (callers tie it to the radio range). *)
let spatial topo ~cell_m =
  let n = node_count topo in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xs.(i) <- topo.positions.(i).x;
    ys.(i) <- topo.positions.(i).y
  done;
  Spatial.make ~xs ~ys ~width_m:topo.width_m ~height_m:topo.height_m ~cell_m

(* Below this node count the all-pairs scan wins: the grid build is ~2n
   array passes, which only pays off once n dwarfs the per-query cell
   ring.  The two paths return identical results (same [Float.hypot] on
   the same pairs; the grid enumerates a superset of the in-range set),
   so the threshold is purely a performance knob. *)
let spatial_threshold = 512

(** [connectivity topo ~range_m] — undirected graph with an edge wherever
    two nodes are within [range_m]; edge weight is the distance.  Above
    {!spatial_threshold} nodes the pair scan is replaced by grid range
    queries; edge insertion order (ascending [i], then ascending [j]) is
    preserved, so the resulting graph is identical. *)
let connectivity topo ~range_m =
  if range_m <= 0.0 then invalid_arg "Topology.connectivity: non-positive range";
  let n = node_count topo in
  let g = Graph.create n in
  if n < spatial_threshold then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = pair_distance topo i j in
        if d <= range_m then Graph.add_undirected g i j ~weight:(Float.max d 1e-3)
      done
    done
  else begin
    let index = spatial topo ~cell_m:range_m in
    (* Per node: collect the forward (j > i) in-range ids, restore the
       ascending order the pair scan produced, then insert. *)
    let scratch = ref [] in
    for i = 0 to n - 1 do
      scratch := [];
      Spatial.iter_within index i ~range_m (fun j _ -> if j > i then scratch := j :: !scratch);
      List.iter
        (fun j ->
          Graph.add_undirected g i j ~weight:(Float.max (pair_distance topo i j) 1e-3))
        (List.sort Stdlib.compare !scratch)
    done
  end;
  g

(** [neighbors_within topo i ~range_m] — ids of nodes within range of
    [i], ascending.  Large topologies answer from a grid range query;
    repeated callers should build one {!spatial} index and query it
    directly. *)
let neighbors_within topo i ~range_m =
  let n = node_count topo in
  if n >= spatial_threshold then
    Spatial.neighbors_within (spatial topo ~cell_m:range_m) i ~range_m
  else
    let rec collect j acc =
      if j >= n then List.rev acc
      else if j <> i && pair_distance topo i j <= range_m then collect (j + 1) (j :: acc)
      else collect (j + 1) acc
    in
    collect 0 []

(** [density topo] — nodes per square metre. *)
let density topo =
  Float.of_int (node_count topo) /. (topo.width_m *. topo.height_m)
