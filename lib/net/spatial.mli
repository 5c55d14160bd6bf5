(** Uniform-grid spatial index over node positions.

    The city-scale fast path: {!Topology.connectivity},
    {!Topology.neighbors_within} and the sparse {!Routing} cache replace
    their all-pairs O(n²) scans with range queries against this grid,
    whose cell edge is tied to the radio range so a query touches a
    constant-size cell ring.  Build is O(n + cells), memory O(n + cells),
    and the cell count is clamped to O(n) regardless of the requested
    cell size.

    Coordinates are stored in cell order, so a query reads one
    contiguous slot range per row of cells.  Candidates are decided on
    their squared distance outside a narrow guard band around the range
    and by [Float.hypot] inside it, so queries return exactly the
    in-range set of the brute-force scan, and reported distances are
    bit-identical (the same [Float.hypot] on the same coordinates):
    swapping the index in never moves an experiment digest —
    property-tested against the pair scan on random topologies,
    including pairs at exactly the range and one ulp either side. *)

type t

val make :
  xs:float array -> ys:float array -> width_m:float -> height_m:float -> cell_m:float -> t
(** Index of points [(xs.(i), ys.(i))] in a [width_m] x [height_m] field
    with cells of roughly [cell_m] on a side (inflated when a smaller
    cell would exceed the O(n) cell budget).  Raises [Invalid_argument]
    on mismatched arrays, a non-positive or non-finite (NaN, infinite)
    field, or a non-positive cell size. *)

val node_count : t -> int

val cell_m : t -> float
(** Actual cell edge after clamping. *)

val iter_within : t -> int -> range_m:float -> (int -> float -> unit) -> unit
(** [iter_within t i ~range_m f] calls [f j d] for every node [j <> i]
    within [range_m] of node [i] ([d] is their exact distance).
    Deterministic order: cells row-major over the covering ring, ids
    ascending within a cell — not globally sorted. *)

val neighbors_within : t -> int -> range_m:float -> int list
(** Ascending node ids within range — element-for-element identical to
    the brute-force ascending pair scan. *)

val degree : t -> int -> range_m:float -> int
(** Number of nodes within range — the same scan as {!iter_within},
    without computing distances. *)

val fill_within : t -> int -> range_m:float -> int array -> float array -> int -> int
(** [fill_within t i ~range_m ids dists pos] writes the ids within range
    of [i] into [ids] from slot [pos] on, ascending, and returns the slot
    after the last ([pos + degree t i ~range_m]).  For each forward
    neighbour [j > i], the same slot of [dists] receives the exact
    distance (bit-identical to {!Topology.pair_distance} [i j]); the
    other slots of [dists] in the row hold unspecified values. *)
