(** Uniform-grid spatial index over node positions (see .mli).

    Buckets are laid out CSR-style in flat arrays (counting sort), so
    building is O(n + cells) with no per-cell allocation.  Node ids
    inside a cell are ascending (the counting sort fills them in id
    order), which keeps query results deterministic.  The coordinates
    are copied into cell order, parallel to [order]: the cells of one
    grid row are consecutive slots, so a ring scan reads one contiguous
    slot range per row of cells.

    One scan serves every query.  It rejects or accepts a candidate on
    its squared distance, except inside a relative guard band of
    [band] around [range_m²], where it decides with the same
    [Float.hypot] as {!Topology.distance}.  The band is ~10⁷ times wider
    than the few-ulp error of either expression, so the squared test
    never decides a pair the other way, and the in-range sets — and the
    distances [iter_within] reports, always from [Float.hypot] — are
    bit-identical to the brute-force pair scan. *)

type t = {
  xs : float array;
  ys : float array;
  cell_m : float;  (** actual cell edge after the cell-count clamp *)
  cols : int;
  rows : int;
  start : int array;  (** cell -> first slot in [order]; length cols*rows+1 *)
  order : int array;  (** node ids grouped by cell, ascending within a cell *)
  sx : float array;  (** x of [order.(k)] at slot [k] *)
  sy : float array;  (** y of [order.(k)] at slot [k] *)
}

(* Cap the bucket array so a tiny cell size over a huge field cannot
   allocate more cells than nodes justify: past ~4 cells per node the
   grid only wastes memory and cache. *)
let max_cells n = Stdlib.max 64 (4 * Stdlib.max 1 n)

let[@inline] clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let make ~xs ~ys ~width_m ~height_m ~cell_m =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Spatial.make: coordinate arrays differ in length";
  if not (Float.is_finite width_m && width_m > 0.0 && Float.is_finite height_m && height_m > 0.0)
  then invalid_arg "Spatial.make: non-positive or non-finite field";
  if not (cell_m > 0.0) then invalid_arg "Spatial.make: non-positive cell size";
  let cols0 = 1 + int_of_float (width_m /. cell_m)
  and rows0 = 1 + int_of_float (height_m /. cell_m) in
  (* Inflate the cell edge until the grid fits the cell budget. *)
  let budget = max_cells n in
  let cell_m =
    if cols0 * rows0 <= budget then cell_m
    else begin
      let scale = Float.sqrt (Float.of_int (cols0 * rows0) /. Float.of_int budget) in
      cell_m *. scale
    end
  in
  let cols = Stdlib.max 1 (1 + int_of_float (width_m /. cell_m))
  and rows = Stdlib.max 1 (1 + int_of_float (height_m /. cell_m)) in
  let cells = cols * rows in
  let start = Array.make (cells + 1) 0 in
  let cell_of i =
    let cx = clamp 0 (cols - 1) (int_of_float (xs.(i) /. cell_m))
    and cy = clamp 0 (rows - 1) (int_of_float (ys.(i) /. cell_m)) in
    (cy * cols) + cx
  in
  for i = 0 to n - 1 do
    let c = cell_of i in
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let cursor = Array.copy start in
  let order = Array.make n 0 in
  let sx = Array.create_float n and sy = Array.create_float n in
  (* Ascending pass: within each cell the ids come out ascending. *)
  for i = 0 to n - 1 do
    let c = cell_of i in
    let k = cursor.(c) in
    order.(k) <- i;
    sx.(k) <- xs.(i);
    sy.(k) <- ys.(i);
    cursor.(c) <- k + 1
  done;
  { xs; ys; cell_m; cols; rows; start; order; sx; sy }

let node_count t = Array.length t.xs
let cell_m t = t.cell_m

(* Relative half-width of the guard band around [range_m²]. *)
let band = 1e-9

(* The one ring scan: [hit k j] for every slot [k] holding a node
   [j <> i] within [range_m] of node [i], cells row-major over the
   covering ring, ids ascending within a cell.  A candidate whose
   squared distance [d2] lies below the band is in range and one above
   it is out; only inside the band does [Float.hypot] decide.  When
   [range_m²] nears underflow or overflow the band's error bound no
   longer holds, so every candidate takes the [Float.hypot] test. *)
let[@inline] scan t i ~range_m hit =
  if range_m > 0.0 then begin
    let x = t.xs.(i) and y = t.ys.(i) in
    let r2 = range_m *. range_m in
    let banded = r2 >= 0x1p-900 && r2 <= 0x1p900 in
    let lo2 = if banded then r2 *. (1.0 -. band) else 0.0
    and hi2 = if banded then r2 *. (1.0 +. band) else Float.infinity in
    let r_cells = int_of_float (Float.ceil (range_m /. t.cell_m)) in
    let cx = clamp 0 (t.cols - 1) (int_of_float (x /. t.cell_m))
    and cy = clamp 0 (t.rows - 1) (int_of_float (y /. t.cell_m)) in
    let x0 = Stdlib.max 0 (cx - r_cells) and x1 = Stdlib.min (t.cols - 1) (cx + r_cells) in
    let y0 = Stdlib.max 0 (cy - r_cells) and y1 = Stdlib.min (t.rows - 1) (cy + r_cells) in
    let sx = t.sx and sy = t.sy and order = t.order in
    for gy = y0 to y1 do
      let row = gy * t.cols in
      for k = t.start.(row + x0) to t.start.(row + x1 + 1) - 1 do
        let dx = Array.unsafe_get sx k -. x and dy = Array.unsafe_get sy k -. y in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if d2 < lo2 || (d2 <= hi2 && Float.hypot dx dy <= range_m) then begin
          let j = Array.unsafe_get order k in
          if j <> i then hit k j
        end
      done
    done
  end

(** [iter_within t i ~range_m f] — call [f j d] for every node [j <> i]
    with [d = distance i j <= range_m].  Visits candidates cell by cell
    (row-major over the covering ring), ids ascending within a cell. *)
let iter_within t i ~range_m f =
  let x = t.xs.(i) and y = t.ys.(i) in
  scan t i ~range_m (fun k j -> f j (Float.hypot (t.sx.(k) -. x) (t.sy.(k) -. y)))

(** [neighbors_within t i ~range_m] — ascending ids within range of [i];
    identical to the brute-force ascending pair scan. *)
let neighbors_within t i ~range_m =
  let acc = ref [] in
  scan t i ~range_m (fun _ j -> acc := j :: !acc);
  List.sort Stdlib.compare !acc

(** [degree t i ~range_m] — number of nodes within range of [i]. *)
let degree t i ~range_m =
  let count = ref 0 in
  scan t i ~range_m (fun _ _ -> incr count);
  !count

(** [fill_within t i ~range_m ids dists pos] — write the ids within
    range of [i] into [ids] from [pos] on, ascending, with the distance
    from [i] to each forward neighbour ([j > i]) in the same slot of
    [dists]; return the position after the last.  The scan's cell-major
    order is restored by an insertion sort (a row holds O(average
    degree) ids), and only forward pairs pay for [Float.hypot]. *)
let fill_within t i ~range_m ids dists pos =
  let x = t.xs.(i) and y = t.ys.(i) in
  let cursor = ref pos in
  scan t i ~range_m (fun k j ->
      ids.(!cursor) <- j;
      (* [x - xj], as {!Topology.pair_distance} [i j] subtracts. *)
      if j > i then dists.(!cursor) <- Float.hypot (x -. t.sx.(k)) (y -. t.sy.(k));
      incr cursor);
  for k = pos + 1 to !cursor - 1 do
    let v = ids.(k) and d = dists.(k) in
    let p = ref k in
    while !p > pos && ids.(!p - 1) > v do
      ids.(!p) <- ids.(!p - 1);
      dists.(!p) <- dists.(!p - 1);
      decr p
    done;
    ids.(!p) <- v;
    dists.(!p) <- d
  done;
  !cursor
