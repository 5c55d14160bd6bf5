(** Incrementally repairable shortest-path collection tree.

    Reusable-scratch replacement for the Graph-materialising rebuild the
    simulators ran on every topology event: {!rebuild} replicates the
    {!Graph.dijkstra} pipeline byte-for-byte straight off a weight
    function, while {!repair_death} and {!repair_weight_increase} splice
    only the affected subtree back via a boundary-seeded partial
    Dijkstra — with a CSR adjacency in O(subtree edges), since the
    subtree is enumerated from its root.  The repair paths are exact when shortest paths are unique
    (tie-free weights); callers with unit-weight policies pass
    [tie_free:false] to fall back to the full rebuild, because
    equal-cost tie-breaks are a global property of the rebuild
    chronology.  The from-scratch rebuild stays the periodic
    residual-aware refresh and the oracle in the property tests. *)

type t

val create : ?csr:int array * int array -> n:int -> sink:int -> unit -> t
(** Fresh tree over [n] nodes rooted at [sink]; every node starts
    unreachable.  [csr] is an optional in-range adjacency
    [(offsets, neighbors)] (as {!Routing.adjacency} returns): when
    present, rebuilds and repairs relax only the listed pairs —
    O(edges) per sweep instead of O(n²) — which is exact as long as
    every off-row pair has NaN weight (true for range-limited radio
    policies; fades only shrink the in-range set).  Raises
    [Invalid_argument] on empty networks, a sink outside [0..n-1], or
    offsets not of length [n+1]. *)

val node_count : t -> int
val sink : t -> int

val parent : t -> int -> int
(** Parent towards the sink after the last rebuild/repair; -1 for the
    sink itself and for unreachable nodes. *)

val cost : t -> int -> float
(** Policy cost from the sink ([infinity] when unreachable). *)

val touched_all : t -> bool
(** Whether the last update may have changed any node: true after
    {!rebuild} (and its fallbacks) and after a repair rooted at the
    sink.  Before the first update it is true as well. *)

val iter_touched : t -> (int -> unit) -> unit
(** When not {!touched_all}: the nodes whose parent or cost the last
    update may have changed, in ascending id order — the subtree that
    was detached and re-attached (its root included), or nothing for a
    no-op fade.  Every other node kept its parent, its cost and
    therefore its whole parent chain. *)

val rebuild : t -> weight:(int -> int -> float) -> alive:(int -> bool) -> unit
(** From-scratch Dijkstra from the sink.  [weight u v] is the directed
    policy cost of hop [u -> v], NaN when there is no link; only nodes
    with [alive] participate. *)

val repair_death :
  t -> weight:(int -> int -> float) -> alive:(int -> bool) -> tie_free:bool -> dead:int -> unit
(** Update the tree after node [dead] left the network ([alive dead]
    must already be false).  With [tie_free] only the orphaned subtree
    is re-attached; otherwise falls back to {!rebuild}. *)

val repair_weight_increase :
  t ->
  weight:(int -> int -> float) ->
  alive:(int -> bool) ->
  tie_free:bool ->
  a:int ->
  b:int ->
  unit
(** Update the tree after the cost of the (undirected) pair [a, b]
    increased — possibly to NaN (link lost).  A worsened non-tree edge
    is a no-op; a worsened tree edge re-attaches the child's subtree.
    Cost decreases are not handled here — callers must {!rebuild}. *)
