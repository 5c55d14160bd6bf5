(** Flat mirror of the routing tree for the forwarding walk (see .mli). *)

open Amb_net

type t = {
  n : int;
  sink : int;
  tree : Route_tree.t;
  link : Link_layer.t;
  alive : int -> bool;
  tiers : Fleet.tier array;
  leaf_ids : int array;
  priced : bool;
  parent : int array;
  hop_tx : float array;
  hop_kind : int array;
  reach : int array;  (** 0 unknown, 1 chain reaches the sink, 2 it does not *)
  chain : int array;  (** scratch: the chain being resolved *)
  mutable connected : int;
}

let create ~fleet ~tree ~link ~alive ~priced =
  let n = Fleet.node_count fleet in
  {
    n;
    sink = fleet.Fleet.sink;
    tree;
    link;
    alive;
    tiers = fleet.Fleet.tiers;
    leaf_ids = Fleet.tier_nodes fleet Fleet.Sensor_leaf;
    priced;
    parent = Array.make n (-2);
    hop_tx = (if priced then Array.make n Float.nan else [||]);
    hop_kind = (if priced then Array.make n 0 else [||]);
    reach = Array.make n 0;
    chain = Array.make n 0;
    connected = 0;
  }

let parent t = t.parent
let hop_tx t = t.hop_tx
let hop_kind t = t.hop_kind
let connected t = t.connected
let leaf_count t = Array.length t.leaf_ids

let entry t i =
  if i = t.sink then -1
  else
    let p = Route_tree.parent t.tree i in
    if p < 0 || not (t.alive i) then -2 else p

let price t i =
  if t.priced then
    Link_layer.refresh_hop_tariff t.link ~sink:t.sink ~parent:t.parent ~tx_j:t.hop_tx
      ~hop_kind:t.hop_kind i

let is_leaf t i = t.tiers.(i) = Fleet.Sensor_leaf

(* Walk [v]'s chain up to the first node whose state is known and
   path-compress that state into every node passed.  Parent chains
   share long suffixes, so a full count is O(n) instead of
   O(leaves * depth).  A non-sink node resolves to 1 only through a
   live parent entry, so a leaf reading 1 is a live one. *)
let resolve t v =
  let reach = t.reach and chain = t.chain and parent = t.parent in
  let top = ref 0 in
  let node = ref v in
  while !node >= 0 && reach.(!node) = 0 && !top < t.n do
    chain.(!top) <- !node;
    incr top;
    node := parent.(!node)
  done;
  let state = if !node >= 0 && reach.(!node) = 1 then 1 else 2 in
  for k = 0 to !top - 1 do
    reach.(chain.(k)) <- state
  done

let sync_all t =
  for i = 0 to t.n - 1 do
    t.parent.(i) <- entry t i
  done;
  if t.priced then
    Link_layer.refresh_hop_tariffs t.link ~sink:t.sink ~parent:t.parent ~tx_j:t.hop_tx
      ~hop_kind:t.hop_kind;
  Array.fill t.reach 0 t.n 0;
  t.reach.(t.sink) <- 1;
  t.connected <- 0;
  Array.iter
    (fun leaf ->
      if t.alive leaf then begin
        resolve t leaf;
        if t.reach.(leaf) = 1 then t.connected <- t.connected + 1
      end)
    t.leaf_ids

(* A repair touched one subtree that does not hold the sink: every other
   node kept its tree parent, its liveness (the one node that died, if
   any, is the subtree's root) and so its whole chain — hence its entry,
   tariff and [reach] state.  Only the touched nodes are re-synced,
   re-priced when their entry changed, and re-counted: their old
   contribution subtracted, their chains re-walked once all their
   entries are current. *)
let sync_touched t =
  Route_tree.iter_touched t.tree (fun i ->
      if is_leaf t i && t.reach.(i) = 1 then t.connected <- t.connected - 1;
      t.reach.(i) <- 0;
      let e = entry t i in
      if e <> t.parent.(i) then begin
        t.parent.(i) <- e;
        price t i
      end);
  Route_tree.iter_touched t.tree (fun i ->
      resolve t i;
      if is_leaf t i && t.reach.(i) = 1 then t.connected <- t.connected + 1)

let sync ?fade t =
  if Route_tree.touched_all t.tree then sync_all t
  else begin
    sync_touched t;
    (* A new fade re-prices its pair even under an unchanged parent. *)
    match fade with
    | Some (a, b) ->
      price t a;
      price t b
    | None -> ()
  end
