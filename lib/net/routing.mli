(** Multi-hop routing over a radio topology.  Edge costs derive from the
    physical layer (minimum closing TX energy per hop plus RX energy).
    Policies: fewest transmissions, least total energy, or avoid draining
    bottleneck nodes. *)

open Amb_units
open Amb_radio

type policy = Min_hop | Min_energy | Max_lifetime

val policy_name : policy -> string

type pair_cache =
  | Dense of float array
      (** flat n*n per-pair TX-side joules; NaN = out of range *)
  | Sparse of {
      offsets : int array;  (** length n+1; CSR row bounds *)
      neighbors : int array;  (** in-range neighbour ids, ascending per row *)
      edge_tx_j : float array;  (** TX-side joules, parallel to [neighbors] *)
    }  (** only the in-range pairs — O(n + edges) memory for city-scale fleets *)

type t = {
  topology : Topology.t;
  link : Link_budget.t;
  packet : Packet.t;
  range_m : float;
  cache : pair_cache;  (** per-pair TX joules: dense below the size threshold, CSR above *)
  rx_j : float;  (** RX-side joules per packet (distance-independent) *)
  tx_memo : (float, float) Hashtbl.t;
      (** distance (m) -> TX-side joules for off-grid lookups (faded
          links, ad-hoc hops).  Owned by this router instance and not
          synchronised: parallel shards must each build their own
          router (the experiment suite already does). *)
}

val default_dense_threshold : int
(** Node count above which {!make} switches from the n×n grid to the CSR
    adjacency (1024). *)

val make :
  ?dense_threshold:int ->
  ?jobs:int ->
  topology:Topology.t ->
  link:Link_budget.t ->
  packet:Packet.t ->
  unit ->
  t
(** The radio range is derived from the link budget at maximum TX power.
    The per-pair link-energy cache is computed here, once, and reused by
    every tree rebuild under every policy.  At or below
    [dense_threshold] (default {!default_dense_threshold}) nodes the
    historic symmetric n×n grid is materialised; above it only the
    in-range pairs are stored (CSR via {!Spatial} grid queries, each
    undirected pair priced once and mirrored), and [jobs] > 1 shards the
    count, fill and pricing passes across a domain pool — the cache is a
    pure function of the positions, so the result is bitwise independent
    of [jobs]. *)

val with_private_memo : t -> t
(** The same router — topology, per-pair cache and packet shared,
    read-only — with a fresh, empty distance memo.  The memo is a pure
    cache over the link-budget inversion, so every lookup through the
    clone is bitwise identical; cloning exists so parallel shards whose
    fault plans fade links each own their memo instead of racing on the
    shared table. *)

val adjacency : t -> (int array * int array) option
(** [(offsets, neighbors)] of the CSR in-range structure when the router
    runs sparse; [None] on the dense grid.  Route-tree sweeps use it to
    relax only in-range pairs. *)

val hop_energy : t -> distance_m:float -> Energy.t option
(** Energy to move one packet one hop: minimum closing TX energy plus RX
    energy; [None] beyond radio reach.  Memoized per distance. *)

val tx_energy_j_at : t -> distance_m:float -> float
(** Memoized TX-side joules for an arbitrary hop length; NaN beyond
    radio reach.  Keyed on the exact distance, so repeated lookups
    (regular grids, per-pair fades) skip the link-budget inversion. *)

val sender_energy_j : t -> int -> int -> float
(** Cached TX-side joules to move one packet between a node pair; NaN
    when the pair is out of radio range.  O(1) on the dense grid,
    O(log degree) on the CSR rows. *)

val receiver_energy_j : t -> float
(** Cached RX-side joules per packet. *)

val link_energy_j : t -> int -> int -> float
(** Cached TX+RX joules for a node pair; NaN when out of range. *)

val build_graph : t -> policy:policy -> residual:(int -> Energy.t) -> Graph.t
(** Weighted graph for a policy; [residual] feeds [Max_lifetime] (pass a
    constant to recover [Min_energy] behaviour). *)

val route : t -> policy:policy -> residual:(int -> Energy.t) -> src:int -> dst:int -> int list option

val path_energy : t -> int list -> Energy.t option
(** Total radio energy to deliver one packet along a path. *)

val sender_energy : t -> distance_m:float -> Energy.t option
(** TX-side-only energy for one hop (per-node depletion accounting);
    memoized per distance. *)

val receiver_energy : t -> Energy.t
(** RX-side-only energy for one hop. *)
