(** The co-simulation's flat view of its routing tree.

    {!Cosim} forwards packets over three per-node arrays rather than
    the tree itself: the parent entry ([-1] for the sink, [-2] for a
    dead or unreachable node), and — on the struct-of-arrays fast
    path — the precomputed hop tariff and receiver kind of
    {!Link_layer.refresh_hop_tariff}.  Coverage needs the number of
    live sensor leaves whose parent chain reaches the sink.

    {!sync} brings all of it up to date after a tree update, at the
    cost of the update: one O(n) pass after a full rebuild, and
    O(touched subtree) after a repair ({!Amb_net.Route_tree.iter_touched}).
    The result is the same, bit for bit, as a full pass after every
    update, because a node outside the repaired subtree keeps its
    parent, its liveness and every ancestor.  The one liveness change a
    repair may follow is its own root's death; callers must sync after
    each death before the next one. *)

type t

val create :
  fleet:Fleet.t ->
  tree:Amb_net.Route_tree.t ->
  link:Link_layer.t ->
  alive:(int -> bool) ->
  priced:bool ->
  t
(** A mirror of [tree] over [fleet]'s nodes; every entry starts dead
    until the first {!sync}.  [priced] allocates and maintains the
    tariff arrays; without it {!hop_tx} and {!hop_kind} are empty. *)

val sync : ?fade:int * int -> t -> unit
(** Refresh the mirror after the tree's last update.  [fade] names the
    endpoints of a fade set since the last sync: their hop tariffs are
    re-priced even when their parent did not change. *)

val parent : t -> int array
(** Parent entries, updated in place by {!sync}. *)

val hop_tx : t -> float array
(** Sender joules of each node's tree hop (NaN when the hop cannot
    close or the node has no parent). *)

val hop_kind : t -> int array
(** Receiver kind of each node's tree hop ({!Link_layer.hop_normal} /
    {!Link_layer.hop_tag} / {!Link_layer.hop_sink_parent}). *)

val connected : t -> int
(** Live sensor leaves whose parent chain reaches the sink. *)

val leaf_count : t -> int
(** Sensor leaves in the fleet, dead or alive. *)
