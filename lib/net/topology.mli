(** Node placement in a rectangular field (metres) and radio-range
    connectivity — the geometric graphs the routing and lifetime
    experiments run on. *)

type position = { x : float; y : float }

type t = {
  width_m : float;
  height_m : float;
  positions : position array;
}

val distance : position -> position -> float

val of_positions : width_m:float -> height_m:float -> position array -> t
(** Raises [Invalid_argument] on a non-positive or non-finite (NaN,
    infinite) field, and on a node outside the field or with a NaN
    coordinate; the message names the node's index. *)

val random : Amb_sim.Rng.t -> nodes:int -> width_m:float -> height_m:float -> t
(** Uniform random placement. *)

val grid : columns:int -> rows:int -> spacing_m:float -> t
(** Regular grid, node 0 at the origin corner. *)

val star : leaves:int -> radius_m:float -> t
(** Hub (node 0) surrounded by leaves on a circle. *)

val node_count : t -> int
val position : t -> int -> position
val pair_distance : t -> int -> int -> float

val spatial : t -> cell_m:float -> Spatial.t
(** Uniform-grid index over the node positions; callers tie [cell_m] to
    the radio range.  Build one and query it directly when issuing many
    range queries. *)

val connectivity : t -> range_m:float -> Graph.t
(** Undirected graph with an edge wherever two nodes are within range;
    edge weight is the distance.  Backed by a grid range query above a
    size threshold — same graph, same edge order, O(n + edges) instead
    of O(n²). *)

val neighbors_within : t -> int -> range_m:float -> int list
(** Ascending ids of nodes within range of a node. *)

val density : t -> float
(** Nodes per square metre. *)
