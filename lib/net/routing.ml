(** Multi-hop routing policies over a radio topology.

    Edge costs derive from the physical layer: transmitting over distance
    [d] costs the minimum closing TX energy per bit (via the link budget),
    plus the receiver's energy per bit.  Three policies:
    - [Min_hop] — fewest transmissions;
    - [Min_energy] — least total energy per delivered bit;
    - [Max_lifetime] — avoid draining bottleneck nodes (energy cost scaled
      by the inverse of the forwarder's residual energy).

    Per-pair storage is two-tier.  Below {!default_dense_threshold} nodes
    the historic flat n×n joule grid is materialised — O(n²) memory, O(1)
    lookup, byte-identical behaviour for every existing experiment.
    Above it, only the in-range pairs exist: a CSR adjacency (offsets /
    neighbour ids / per-edge TX joules) built from {!Spatial} grid
    range queries, O(n + edges) memory and build time, with per-pair
    lookups answered by a binary search of the (short, sorted) neighbour
    row.  The build scans the grid twice per node (count, then fill),
    prices each undirected pair once with the link-budget terms staged
    per build, and mirrors that energy into the reverse slot; the
    passes shard across {!Amb_sim.Domain_pool} and are a pure function
    of the node positions, so the result is bitwise independent of
    [jobs]. *)

open Amb_units
open Amb_radio

type policy = Min_hop | Min_energy | Max_lifetime

let policy_name = function
  | Min_hop -> "min-hop"
  | Min_energy -> "min-energy"
  | Max_lifetime -> "max-lifetime"

type pair_cache =
  | Dense of float array  (** flat n*n per-pair TX-side joules; NaN = out of range *)
  | Sparse of {
      offsets : int array;  (** length n+1; row [i] is [offsets.(i) .. offsets.(i+1) - 1] *)
      neighbors : int array;  (** in-range neighbour ids, ascending within a row *)
      edge_tx_j : float array;  (** TX-side joules, parallel to [neighbors] *)
    }

type t = {
  topology : Topology.t;
  link : Link_budget.t;
  packet : Packet.t;
  range_m : float;
  cache : pair_cache;  (** per-pair TX joules: dense grid or CSR adjacency *)
  rx_j : float;  (** RX-side joules per packet (distance-independent) *)
  tx_memo : (float, float) Hashtbl.t;
      (** distance (m) -> TX-side joules, for lookups off the pair cache
          (faded links, ad-hoc hops); owned by this router instance and
          unsynchronised — parallel shards each build their own router *)
}

(* The distance-independent terms of [tx_joules], computed once: the
   staged link budget (wavelength, reference-distance loss, sensitivity
   plus margin), the packet's airtime and the start-up energy. *)
type tx_stage = {
  budget : Link_budget.staged;
  radio : Amb_circuit.Radio_frontend.t;
  airtime : Time_span.t;
  startup : Energy.t option;
}

let stage_tx ~link ~packet =
  let radio = link.Link_budget.radio in
  { budget = Link_budget.stage link;
    radio;
    airtime =
      Data_rate.transfer_time radio.Amb_circuit.Radio_frontend.bitrate (Packet.total_bits packet);
    startup = Some (Amb_circuit.Radio_frontend.startup_energy radio) }

(* TX energy for one packet over [distance_m]; NaN beyond radio reach:
   the link-budget inversion, then the burst at that level plus the
   start-up energy.  The CSR build stages once and calls this per edge;
   [tx_joules] (the dense grid and the distance memo) stages per call,
   so both run the same float operations in the same order. *)
let staged_tx_joules s ~distance_m =
  match Link_budget.staged_required_tx_dbm s.budget ~distance_m with
  | None -> Float.nan
  | Some tx_dbm ->
    Energy.to_joules
      (Amb_circuit.Radio_frontend.burst_energy s.radio ~tx_dbm ~airtime:s.airtime
         ~startup:s.startup)

let tx_joules ~link ~packet ~distance_m = staged_tx_joules (stage_tx ~link ~packet) ~distance_m

(** [tx_energy_j_at router ~distance_m] — memoized TX-side joules for an
    arbitrary hop length; NaN beyond radio reach.  Keyed on the exact
    distance, so repeated lookups (regular grids, per-pair fades) skip
    the link-budget inversion. *)
let tx_energy_j_at router ~distance_m =
  match Hashtbl.find_opt router.tx_memo distance_m with
  | Some e -> e
  | None ->
    let e = tx_joules ~link:router.link ~packet:router.packet ~distance_m in
    Hashtbl.add router.tx_memo distance_m e;
    e

(* Above this node count the n×n grid gives way to the CSR adjacency.
   The dense grid at the threshold is ~8 MB; everything the experiment
   suite builds sits far below it, so all existing digests stay on the
   dense path. *)
let default_dense_threshold = 1024

(* CSR adjacency over the in-range pairs, neighbours ascending per row.
   - count: one [Spatial.degree] scan per row, then a serial prefix sum;
   - fill: one [Spatial.fill_within] scan per row writes it ascending,
     with each forward edge's ([j > i]) distance parked in its
     [edge_tx_j] slot;
   - price: each forward distance is priced in place, once per
     undirected pair, with the link budget staged once per build;
   - mirror (serial): the energy of (i, j) is copied into the (j, i)
     slot.  Rows ascend, so row [j]'s backward entries ([i < j], the
     head of the row) are reached in ascending [i]: a per-row cursor
     walks them in order.  [Float.hypot] of negated differences gives
     the same bits, so the copy equals what pricing (j, i) would give.
   Count and fill shard by rows, price by edge slots through the
   edge-slot -> row map [row_of], whose storage then serves as the
   mirror's cursor.  (A row-sharded price pass needs no [row_of] and
   builds the same cache, but on the benchmark's city-churn workload it
   raised the peak heap by a fifth: with less allocated during the
   build, the GC's pacing let the later run's garbage pile higher.)
   Every value is a pure function of the read-only grid and positions
   and every sharded pass writes only its own rows or slots, so
   sharding cannot move a bit. *)
let build_sparse ~topology ~link ~packet ~range_m ~jobs =
  let n = Topology.node_count topology in
  let index = Topology.spatial topology ~cell_m:range_m in
  let stage = stage_tx ~link ~packet in
  let jobs = Stdlib.max 1 jobs in
  let offsets = Array.make (n + 1) 0 in
  (* [shard total task] runs [task lo hi] over a partition of [0, total). *)
  let build shard =
    shard n (fun lo hi ->
        for i = lo to hi - 1 do
          offsets.(i + 1) <- Spatial.degree index i ~range_m
        done);
    for i = 1 to n do
      offsets.(i) <- offsets.(i) + offsets.(i - 1)
    done;
    let edges = offsets.(n) in
    let neighbors = Array.make edges 0 in
    let edge_tx_j = Array.make edges Float.nan in
    shard n (fun lo hi ->
        for i = lo to hi - 1 do
          ignore (Spatial.fill_within index i ~range_m neighbors edge_tx_j offsets.(i) : int)
        done);
    (* At least [n] long, for its second life as the cursor. *)
    let row_of = Array.make (Stdlib.max n edges) 0 in
    shard n (fun lo hi ->
        for i = lo to hi - 1 do
          for k = offsets.(i) to offsets.(i + 1) - 1 do
            row_of.(k) <- i
          done
        done);
    shard edges (fun lo hi ->
        for k = lo to hi - 1 do
          if neighbors.(k) > row_of.(k) then
            edge_tx_j.(k) <- staged_tx_joules stage ~distance_m:edge_tx_j.(k)
        done);
    let cursor = row_of in
    Array.blit offsets 0 cursor 0 n;
    for i = 0 to n - 1 do
      for k = offsets.(i) to offsets.(i + 1) - 1 do
        let j = neighbors.(k) in
        if j > i then begin
          edge_tx_j.(cursor.(j)) <- edge_tx_j.(k);
          cursor.(j) <- cursor.(j) + 1
        end
      done
    done;
    Sparse { offsets; neighbors; edge_tx_j }
  in
  if jobs = 1 then build (fun total task -> task 0 total)
  else
    Amb_sim.Domain_pool.with_pool ~jobs (fun pool ->
        build (fun total task ->
            if total < 4096 then task 0 total
            else begin
              let chunk = (total + (4 * jobs) - 1) / (4 * jobs) in
              let chunks = (total + chunk - 1) / chunk in
              ignore
                (Amb_sim.Domain_pool.run pool
                   (Array.init chunks (fun c () ->
                        task (c * chunk) (Stdlib.min total ((c + 1) * chunk))))
                  : unit array)
            end))

let make ?dense_threshold ?(jobs = 1) ~topology ~link ~packet () =
  let dense_threshold =
    match dense_threshold with Some t -> t | None -> default_dense_threshold
  in
  let range_m = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Amb_circuit.Radio_frontend.max_tx_dbm in
  let n = Topology.node_count topology in
  let rx_j =
    Energy.to_joules
      (Amb_circuit.Radio_frontend.receive_energy link.Link_budget.radio
         ~bits:(Packet.total_bits packet) ~include_startup:true)
  in
  if n > dense_threshold then
    let cache = build_sparse ~topology ~link ~packet ~range_m ~jobs in
    { topology; link; packet; range_m; cache; rx_j; tx_memo = Hashtbl.create 64 }
  else begin
    let tx_j = Array.make (n * n) Float.nan in
    let router =
      { topology; link; packet; range_m; cache = Dense tx_j; rx_j;
        tx_memo = Hashtbl.create 64 }
    in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = Topology.pair_distance topology i j in
        if d <= range_m then begin
          let e = tx_energy_j_at router ~distance_m:d in
          tx_j.((i * n) + j) <- e;
          tx_j.((j * n) + i) <- e
        end
      done
    done;
    router
  end

(** [with_private_memo router] — the same router (topology, pair cache
    and packet shared, all read-only) with a fresh, empty distance memo.
    The memo is a pure cache over [tx_joules], so a clone computes
    bitwise-identical energies; what it buys is isolation: parallel
    shards whose fault plans fade links each write their own memo
    instead of racing on the shared one. *)
let with_private_memo router = { router with tx_memo = Hashtbl.create 64 }

(** [adjacency router] — the CSR structure (offsets, neighbour ids) when
    the router runs sparse; [None] on the dense grid.  Consumers
    (Route_tree sweeps, Cosim) use it to visit only in-range pairs. *)
let adjacency router =
  match router.cache with
  | Dense _ -> None
  | Sparse { offsets; neighbors; _ } -> Some (offsets, neighbors)

(** [sender_energy_j router i j] — cached TX-side joules for the pair;
    NaN when out of range.  O(1) on the dense grid, O(log degree) on the
    CSR rows. *)
let sender_energy_j router i j =
  match router.cache with
  | Dense tx_j -> tx_j.((i * Topology.node_count router.topology) + j)
  | Sparse { offsets; neighbors; edge_tx_j } ->
    let lo = ref offsets.(i) and hi = ref (offsets.(i + 1) - 1) in
    let result = ref Float.nan in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = Array.unsafe_get neighbors mid in
      if v = j then begin
        result := Array.unsafe_get edge_tx_j mid;
        lo := !hi + 1
      end
      else if v < j then lo := mid + 1
      else hi := mid - 1
    done;
    !result

(** [receiver_energy_j router] — cached RX-side joules per packet. *)
let receiver_energy_j router = router.rx_j

(** [link_energy_j router i j] — cached TX+RX joules to move one packet
    between the pair; NaN when out of range. *)
let link_energy_j router i j = sender_energy_j router i j +. router.rx_j

(** [hop_energy router ~distance_m] — energy to move one packet one hop of
    [distance_m]: minimum closing TX energy plus RX energy; [None] beyond
    radio reach. *)
let hop_energy router ~distance_m =
  let tx = tx_energy_j_at router ~distance_m in
  if Float.is_nan tx then None else Some (Energy.joules (tx +. router.rx_j))

(** [build_graph router ~policy ~residual] — weighted graph for [policy],
    entirely from the per-pair energy cache (no link-budget math).
    [residual] gives each node's remaining energy (used by
    [Max_lifetime]); pass the same value for all nodes to recover
    [Min_energy] behaviour.  Edge insertion order (ascending source, then
    ascending destination) is identical on both cache tiers. *)
let build_graph router ~policy ~residual =
  let n = Topology.node_count router.topology in
  let g = Graph.create n in
  let add i j tx =
    let joules = tx +. router.rx_j in
    if not (Float.is_nan joules) then
      let weight =
        match policy with
        | Min_hop -> 1.0
        | Min_energy -> joules
        | Max_lifetime ->
          let r = Energy.to_joules (residual i) in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
      in
      Graph.add_edge g ~src:i ~dst:j ~weight
  in
  (match router.cache with
  | Dense tx_j ->
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then add i j tx_j.((i * n) + j)
      done
    done
  | Sparse { offsets; neighbors; edge_tx_j } ->
    for i = 0 to n - 1 do
      for k = offsets.(i) to offsets.(i + 1) - 1 do
        add i neighbors.(k) edge_tx_j.(k)
      done
    done);
  g

(** [route router ~policy ~residual ~src ~dst] — the chosen path, or
    [None] when disconnected. *)
let route router ~policy ~residual ~src ~dst =
  let g = build_graph router ~policy ~residual in
  Graph.shortest_path g ~src ~dst

(** [path_energy router path] — total radio energy to deliver one packet
    along [path]; [None] if a hop is out of range. *)
let path_energy router path =
  let rec walk = function
    | [] | [ _ ] -> Some Energy.zero
    | u :: (v :: _ as rest) -> (
      let d = Topology.pair_distance router.topology u v in
      match (hop_energy router ~distance_m:d, walk rest) with
      | Some e, Some tail -> Some (Energy.add e tail)
      | _, _ -> None)
  in
  walk path

(** [sender_energy router ~distance_m] — TX-side-only energy for one hop
    (used when accounting per-node depletion); memoized per distance. *)
let sender_energy router ~distance_m =
  let tx = tx_energy_j_at router ~distance_m in
  if Float.is_nan tx then None else Some (Energy.joules tx)

(** [receiver_energy router] — RX-side-only energy for one hop (cached). *)
let receiver_energy router = Energy.joules router.rx_j
