(** Incrementally repairable shortest-path collection tree.

    The simulators (Net_sim, Cosim) maintain one sink-rooted routing
    tree over the alive subgraph and historically re-ran {!Graph.dijkstra}
    from scratch on every topology event.  This module keeps the same
    tree in reusable scratch arrays and offers two update paths:

    - {!rebuild} — a from-scratch Dijkstra that replicates the
      {!Graph.create}/{!Graph.add_edge}/{!Graph.dijkstra} pipeline
      byte-for-byte (same descending-destination relaxation order, same
      FIFO heap tie-breaks, same strict-improvement predecessor rule)
      without materialising a graph: edges are read straight from the
      caller's weight function.
    - {!repair_death} / {!repair_weight_increase} — localized repair:
      only the subtree hanging off the failed node (or the worsened tree
      edge) is re-attached, via a boundary-seeded partial Dijkstra over
      the affected set.  With a CSR adjacency the subtree is enumerated
      from its root, so a repair costs O(subtree edges), not O(n).

    Every update records the nodes it may have changed (the touched
    set, {!touched_all} / {!iter_touched}), so callers mirroring the
    tree can refresh only those entries.

    The repair paths are exact when shortest paths are unique (tie-free
    weights — energy-valued policies on continuous positions).  Under
    unit weights (Min_hop) equal-cost predecessor choice depends on the
    global heap chronology of the full rebuild, which a local repair
    cannot reproduce, so callers pass [tie_free:false] and the repair
    falls back to {!rebuild}.  Property tests check both paths against
    the {!Graph.dijkstra} oracle on random fault sequences. *)

type t = {
  n : int;
  sink : int;
  dist : float array;  (** policy cost from the sink; [infinity] = unreachable *)
  prev : int array;  (** parent towards the sink; -1 = none *)
  visited : bool array;
  mark : int array;
      (** repair scratch: 1 affected, anything else safe; all 0 between
          repairs *)
  stack : int array;
      (** repair scratch (parent-chain walk), then the touched nodes in
          ascending id order *)
  mutable touched : int;  (** touched count in [stack]; -1 = every node *)
  heap : Amb_sim.Float_heap.t;
  csr_offsets : int array;  (** in-range adjacency rows; empty = dense all-pairs scan *)
  csr_neighbors : int array;
}

let create ?csr ~n ~sink () =
  if n <= 0 then invalid_arg "Route_tree.create: non-positive node count";
  if sink < 0 || sink >= n then invalid_arg "Route_tree.create: sink outside 0..n-1";
  let csr_offsets, csr_neighbors =
    match csr with
    | None -> ([||], [||])
    | Some (offsets, neighbors) ->
      if Array.length offsets <> n + 1 then
        invalid_arg "Route_tree.create: csr offsets must have length n+1";
      (offsets, neighbors)
  in
  {
    n;
    sink;
    dist = Array.make n Float.infinity;
    prev = Array.make n (-1);
    visited = Array.make n false;
    mark = Array.make n 0;
    stack = Array.make n 0;
    touched = -1;
    heap = Amb_sim.Float_heap.create ~capacity:(Stdlib.max 16 n) ();
    csr_offsets;
    csr_neighbors;
  }

let node_count t = t.n
let sink t = t.sink
let parent t i = t.prev.(i)
let cost t i = t.dist.(i)
let touched_all t = t.touched < 0

let iter_touched t f =
  for k = 0 to t.touched - 1 do
    f t.stack.(k)
  done

(* Dijkstra sweep over [t.heap]; relaxes only destinations [j] admitted
   by [admit].  Mirrors Graph.dijkstra exactly: stale-entry skip via
   [d <= dist], strict-improvement predecessor updates, and neighbours
   visited in descending id — Graph stores edges in ascending insertion
   order and iterates them most-recent-first.  With a CSR adjacency the
   relaxation runs over [u]'s in-range row only (descending, mirroring
   the dense order restricted to the row) — O(edges) per sweep instead
   of O(n²); out-of-row pairs have NaN weight in every policy, so the
   restriction drops no edge. *)
let[@inline] relax t ~weight ~alive ~admit ~u ~base j =
  if j <> u && admit j && alive j then begin
    let w = weight u j in
    if not (Float.is_nan w) then begin
      let candidate = base +. w in
      if candidate < t.dist.(j) then begin
        t.dist.(j) <- candidate;
        t.prev.(j) <- u;
        Amb_sim.Float_heap.push t.heap ~key:candidate j
      end
    end
  end

let sweep t ~weight ~alive ~admit =
  let dist = t.dist and visited = t.visited in
  let n = t.n in
  let sparse = Array.length t.csr_offsets > 0 in
  let rec loop () =
    match Amb_sim.Float_heap.pop_min t.heap with
    | None -> ()
    | Some (d, u) ->
      if (not visited.(u)) && d <= dist.(u) && alive u then begin
        visited.(u) <- true;
        let base = dist.(u) in
        if sparse then
          for k = t.csr_offsets.(u + 1) - 1 downto t.csr_offsets.(u) do
            relax t ~weight ~alive ~admit ~u ~base t.csr_neighbors.(k)
          done
        else
          for j = n - 1 downto 0 do
            relax t ~weight ~alive ~admit ~u ~base j
          done
      end;
      loop ()
  in
  loop ()

let all_nodes _ = true

(** [rebuild t ~weight ~alive] — from-scratch Dijkstra from the sink.
    [weight u v] is the directed policy cost of hop [u -> v] (NaN = no
    link); only nodes with [alive] participate.  Replicates the historic
    Graph-based rebuild byte-for-byte. *)
let rebuild t ~weight ~alive =
  let dist = t.dist and prev = t.prev and visited = t.visited in
  t.touched <- -1;
  for i = 0 to t.n - 1 do
    dist.(i) <- Float.infinity;
    prev.(i) <- -1;
    visited.(i) <- false
  done;
  dist.(t.sink) <- 0.0;
  Amb_sim.Float_heap.clear t.heap;
  Amb_sim.Float_heap.push t.heap ~key:0.0 t.sink;
  sweep t ~weight ~alive ~admit:all_nodes

(* Partition the nodes into the subtree under [root] (affected) and the
   rest (safe) by walking parent chains with path compression into
   [mark].  Unreachable nodes (no parent) are safe: removing edges never
   improves them.  O(n): the dense path and the sink-rooted repair. *)
let mark_subtree t ~root =
  let mark = t.mark and prev = t.prev and stack = t.stack in
  Array.fill mark 0 t.n 0;
  mark.(root) <- 1;
  if t.sink <> root then mark.(t.sink) <- 2;
  for v = 0 to t.n - 1 do
    if mark.(v) = 0 then begin
      let top = ref 0 in
      let u = ref v in
      while mark.(!u) = 0 do
        stack.(!top) <- !u;
        incr top;
        let p = prev.(!u) in
        if p < 0 then mark.(!u) <- 2 else u := p
      done;
      let state = mark.(!u) in
      for k = 0 to !top - 1 do
        mark.(stack.(k)) <- state
      done
    end
  done

(* Collect the subtree under [root] into [stack], ascending, with
   [mark] = 1 on exactly its members.  With a CSR adjacency the subtree
   is enumerated breadth-first from [root] itself — a node's children are
   the row neighbours whose parent it is, which is every child because
   a parent link is only ever set along a row and rows are symmetric —
   so the cost is the subtree's edges, not n.  Without one (dense
   scan), or when [root] is the sink, [mark_subtree] partitions every
   node instead. *)
let collect_subtree t ~root =
  let mark = t.mark and stack = t.stack in
  let count =
    if Array.length t.csr_offsets > 0 && root <> t.sink then begin
      let prev = t.prev and offsets = t.csr_offsets and neighbors = t.csr_neighbors in
      mark.(root) <- 1;
      stack.(0) <- root;
      let tail = ref 1 in
      let head = ref 0 in
      while !head < !tail do
        let u = stack.(!head) in
        incr head;
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          let v = neighbors.(k) in
          if prev.(v) = u then begin
            mark.(v) <- 1;
            stack.(!tail) <- v;
            incr tail
          end
        done
      done;
      let members = Array.sub stack 0 !tail in
      Array.sort Int.compare members;
      Array.blit members 0 stack 0 !tail;
      !tail
    end
    else begin
      mark_subtree t ~root;
      let count = ref 0 in
      for v = 0 to t.n - 1 do
        if mark.(v) = 1 then begin
          stack.(!count) <- v;
          incr count
        end
        else mark.(v) <- 0
      done;
      !count
    end
  in
  t.touched <- count

(* Detach the affected subtree and re-attach it: seed every affected
   node with its best link from the intact region, then run a partial
   Dijkstra confined to the affected set.  The subtree is processed in
   ascending id order — the order the dense scan yields — so the
   seeding order and heap tie-breaks do not depend on the adjacency.
   Exact whenever shortest paths are unique.  A sink-rooted repair orphans the whole tree and
   reports every node touched. *)
let repair_from t ~weight ~alive ~root =
  collect_subtree t ~root;
  let mark = t.mark and dist = t.dist and prev = t.prev and visited = t.visited in
  let stack = t.stack and count = t.touched in
  for k = 0 to count - 1 do
    let v = stack.(k) in
    dist.(v) <- Float.infinity;
    prev.(v) <- -1;
    visited.(v) <- false
  done;
  Amb_sim.Float_heap.clear t.heap;
  (* Best link into [v] from the intact region; ascending [u] (a CSR row
     is ascending too, and omits only NaN-weight pairs, so both paths
     pick the same boundary edge). *)
  let seed_from v u =
    if mark.(u) <> 1 && u <> v && alive u && dist.(u) < Float.infinity then begin
      let w = weight u v in
      if not (Float.is_nan w) then begin
        let candidate = dist.(u) +. w in
        if candidate < dist.(v) then begin
          dist.(v) <- candidate;
          prev.(v) <- u
        end
      end
    end
  in
  let sparse = Array.length t.csr_offsets > 0 in
  for k = 0 to count - 1 do
    let v = stack.(k) in
    if alive v then begin
      if sparse then
        for e = t.csr_offsets.(v) to t.csr_offsets.(v + 1) - 1 do
          seed_from v t.csr_neighbors.(e)
        done
      else
        for u = 0 to t.n - 1 do
          seed_from v u
        done;
      if dist.(v) < Float.infinity then Amb_sim.Float_heap.push t.heap ~key:dist.(v) v
    end
  done;
  sweep t ~weight ~alive ~admit:(fun j -> mark.(j) = 1);
  for k = 0 to count - 1 do
    mark.(stack.(k)) <- 0
  done;
  if root = t.sink then t.touched <- -1

(** [repair_death t ~weight ~alive ~tie_free ~dead] — update the tree
    after node [dead] left the network ([alive dead] must already be
    false).  With [tie_free] the orphaned subtree is re-attached via a
    boundary-seeded partial Dijkstra; without it (unit-weight policies,
    where equal-cost tie-breaks are a global property of the rebuild
    chronology) it falls back to {!rebuild}. *)
let repair_death t ~weight ~alive ~tie_free ~dead =
  if dead < 0 || dead >= t.n then invalid_arg "Route_tree.repair_death: node outside 0..n-1";
  if not tie_free then rebuild t ~weight ~alive
  else repair_from t ~weight ~alive ~root:dead

(** [repair_weight_increase t ~weight ~alive ~tie_free ~a ~b] — update
    the tree after the cost of the (undirected) pair [a, b] increased —
    possibly to NaN (link lost).  A worsened non-tree edge leaves the
    unique shortest-path tree intact (no-op); a worsened tree edge
    re-attaches the child's subtree.  Weight decreases are not handled
    here: they can improve arbitrary remote paths, so callers must
    {!rebuild}. *)
let repair_weight_increase t ~weight ~alive ~tie_free ~a ~b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg "Route_tree.repair_weight_increase: node outside 0..n-1";
  if not tie_free then rebuild t ~weight ~alive
  else if t.prev.(a) = b then repair_from t ~weight ~alive ~root:a
  else if t.prev.(b) = a then repair_from t ~weight ~alive ~root:b
  else t.touched <- 0
