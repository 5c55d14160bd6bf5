(** Whole-fleet co-simulation (see .mli for the model contract).

    The forwarding loop, death-triggered rebuilds and report-phase RNG
    discipline deliberately mirror {!Amb_net.Net_sim} statement for
    statement; the continuous energy accounting mirrors
    {!Amb_node.Lifetime_sim} via {!Node_agent}.  The degenerate
    cross-check experiments (E27) depend on both mirrors.

    Hot-path discipline matches Net_sim: the event loop runs on the
    float-native {!Engine} API (one report closure per node for the
    whole run, no per-event [Time_span.t] boxing), the collection tree
    lives in a reusable {!Route_tree}, and topology events under the
    tie-free [Min_energy] policy splice the affected subtree instead of
    re-running Dijkstra over all pairs — node deaths re-attach the
    orphaned subtree, link fades that only worsen a pair repair the
    faded tree edge (or no-op on non-tree edges).  [Min_hop] (global
    tie-breaks) and [Max_lifetime] (residual-dependent weights), as
    well as fades that improve a pair (a smaller fade replacing a
    larger one), keep the full rebuild.  After a splice only the
    spliced subtree's parent entries, hop tariffs and coverage state
    are refreshed, so a repair costs O(subtree), not O(n). *)

open Amb_units
open Amb_sim
open Amb_net

type config = {
  fleet : Fleet.t;
  link : Link_layer.mode;
  policy : Routing.policy;
  horizon : Time_span.t;
  rebuild_period : Time_span.t;
  accounting_period : Time_span.t;
  diurnal : Amb_energy.Day_profile.t option;
  faults : Fault_plan.t;
  availability_threshold : float;
}

let config ?(link = Link_layer.Cached) ?(policy = Routing.Min_energy)
    ?(rebuild_period = Time_span.hours 4.0) ?(accounting_period = Time_span.minutes 10.0)
    ?diurnal ?(faults = Fault_plan.none) ?(availability_threshold = 0.9) ~fleet ~horizon () =
  if Time_span.to_seconds horizon <= 0.0 then invalid_arg "Cosim.config: non-positive horizon";
  if Time_span.to_seconds rebuild_period <= 0.0 then
    invalid_arg "Cosim.config: non-positive rebuild period";
  if Time_span.to_seconds accounting_period <= 0.0 then
    invalid_arg "Cosim.config: non-positive accounting period";
  if availability_threshold < 0.0 || availability_threshold > 1.0 then
    invalid_arg "Cosim.config: availability threshold outside [0,1]";
  { fleet; link; policy; horizon; rebuild_period; accounting_period; diurnal; faults;
    availability_threshold }

type outcome = {
  generated : int;
  delivered : int;
  dropped : int;
  delivery_ratio : float;
  first_death : Time_span.t option;
  deaths : (int * Time_span.t) list;
  dead_at_end : int;
  energy_spent : Energy.t;
  energy_harvested : Energy.t;
  availability : float;
  mean_coverage : float;
  rebuilds : int;
  events : int;
  agents : Node_agent.t array;
}

(* Fleet size at which the run switches from per-object [Node_agent]
   accounting and per-hop [Link_layer] pricing to the struct-of-arrays
   fast path ([Fleet_ledger] columns, precomputed hop tariffs, indexed
   report events).  The two paths are bit-for-bit identical — the
   threshold trades the historic path's zero setup cost against the
   fast path's per-event floor, and every legacy experiment (tens to
   hundreds of nodes) stays on the historic code verbatim. *)
let default_fast_threshold = 1024

(* Report batches below this size replay sequentially even with a pool:
   the fork/join and the grouping pass cost more than a few hundred
   walks.  Identical observables either way — purely a latency knob. *)
let batch_parallel_min = 256

type phase_times = {
  clock : unit -> float;
  mutable forward_s : float;
  mutable account_s : float;
  mutable rebuild_s : float;
}

let phase_times ~clock = { clock; forward_s = 0.0; account_s = 0.0; rebuild_s = 0.0 }

(* The body takes the router explicitly: [run] passes the fleet's own,
   [run_many]'s parallel shards pass private-memo clones so fade faults
   (which write per-distance energies through the memo) never race.
   [pool] parallelises the fast path's two intra-run bulk phases —
   accounting ticks and report batches — over disjoint work (deaths
   still processed sequentially in event order, so outcomes are
   jobs-independent); [phase] accumulates wall-clock per run phase;
   [fast_threshold] overrides {!default_fast_threshold} — the oracle
   tests pin it to 0 / max_int to force either representation at any
   fleet size. *)
let run_with_router ?trace ?pool ?phase ?(fast_threshold = default_fast_threshold) ~router
    cfg ~seed =
  let fleet = cfg.fleet in
  let topo = fleet.Fleet.topology in
  let n = Topology.node_count topo in
  let sink = fleet.Fleet.sink in
  let rng = Rng.create seed in
  let engine = Engine.create ?trace () in
  (* Per-event clock reads through the engine's float cell: without
     flambda, [now_s]'s return is boxed at every call. *)
  let clk = Engine.clock_cell engine in
  let link =
    Link_layer.create
      ?tag_link:
        (Option.map
           (fun bs ->
             ( bs,
               (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
               fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
           fleet.Fleet.tag_link)
      ~router ~mode:cfg.link ()
  in
  let sampling = Power.watts (Link_layer.sampling_power_w link) in
  (* Distance-independent receiver tariffs — constant for the run, so
     hoisted here beside the sampling power instead of being re-read
     inside every per-node forwarding closure. *)
  let rx_j = Link_layer.cost_rx_j link in
  let reader_j = Link_layer.reader_cost_rx_j link in
  let income_multiplier = Option.map Amb_energy.Day_profile.income_multiplier cfg.diurnal in
  let agents =
    Array.init n (fun i ->
        (* Tags never sample the shared MAC channel — their downlink is
           the reader's carrier, so the MAC sleep tax stays off their
           nanowatt ledger. *)
        let extra_sleep =
          if fleet.Fleet.tiers.(i) = Fleet.Tag then Power.zero else sampling
        in
        Node_agent.create ?income_multiplier ~extra_sleep ~id:i
          ~cfg:(Fleet.config_of fleet fleet.Fleet.tiers.(i)) ())
  in
  (* Battery-capacity faults apply before the clock starts. *)
  List.iter
    (function
      | Fault_plan.Battery_scale { node; scale } ->
        Node_agent.scale_battery agents.(node) ~factor:scale
      | Fault_plan.Node_crash _ | Fault_plan.Link_fade _ -> ())
    cfg.faults;
  (* The struct-of-arrays twin (snapshotted after the battery faults so
     the columns see the scaled capacities).  While it exists, it — not
     the agent records — is the energy truth: every liveness test,
     reserve read and death instant below goes through these accessor
     closures, and the agents are restored from the columns at run
     end. *)
  let fast = n >= fast_threshold in
  let ledger = if fast then Some (Fleet_ledger.of_agents ?income_multiplier agents) else None in
  let alive =
    match ledger with
    | None -> fun i -> Node_agent.alive agents.(i)
    | Some lg -> fun i -> Fleet_ledger.alive lg i
  in
  let reserve =
    match ledger with
    | None -> fun i -> Node_agent.reserve_j agents.(i)
    | Some lg -> fun i -> Fleet_ledger.reserve_j lg i
  in
  let died_at_raw =
    match ledger with
    | None -> fun i -> Node_agent.died_at_s agents.(i)
    | Some lg -> fun i -> Fleet_ledger.died_at_s lg i
  in
  let crash_node =
    match ledger with
    | None -> fun i now -> Node_agent.crash agents.(i) ~now
    | Some lg -> fun i now -> Fleet_ledger.crash lg i ~now
  in
  let tree =
    Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink ()
  in
  (* The forwarding walk reads the tree through [mirror]'s flat arrays:
     parent entries and, on the fast path, precomputed hop tariffs
     ([hop_tx.(i)] is the sender cost of the tree hop i -> parent.(i),
     [hop_kind.(i)] its receiver classification), so it makes zero
     link-layer calls.  [Tree_mirror.sync] refreshes exactly the
     entries a tree update (or a fade) changed. *)
  let mirror = Tree_mirror.create ~fleet ~tree ~link ~alive ~priced:fast in
  let parent = Tree_mirror.parent mirror in
  let hop_tx = Tree_mirror.hop_tx mirror and hop_kind = Tree_mirror.hop_kind mirror in
  let leaf_count = Tree_mirror.leaf_count mirror in
  let generated = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let deaths = ref [] in
  let rebuilds = ref 0 in
  let coverage = Stat.time_weighted () in
  let avail = Stat.time_weighted () in
  let note label time =
    match trace with None -> () | Some tr -> Trace.record tr ~time label
  in
  (* Policy cost of hop [i -> j]: link-layer weights (fade-aware) with
     agent reserves feeding the max-lifetime policy — the same edge
     weights the historic Graph-based rebuild materialised. *)
  let weight =
    match cfg.policy with
    | Routing.Min_hop ->
      fun i j -> if Float.is_nan (Link_layer.weight_j link i j) then Float.nan else 1.0
    | Routing.Min_energy -> fun i j -> Link_layer.weight_j link i j
    | Routing.Max_lifetime ->
      fun i j ->
        let joules = Link_layer.weight_j link i j in
        if Float.is_nan joules then joules
        else
          let r = reserve i in
          if r <= 0.0 then Float.max_float /. 1e6 else joules /. r
  in
  (* Every tree update — full or spliced — feeds the coverage and
     availability accumulators at its instant, as the historic
     rebuild-everywhere path did. *)
  let record_stats now =
    let f =
      if leaf_count = 0 then 1.0
      else Float.of_int (Tree_mirror.connected mirror) /. Float.of_int leaf_count
    in
    Stat.update coverage ~time:now ~value:f;
    Stat.update avail ~time:now
      ~value:(if f >= cfg.availability_threshold then 1.0 else 0.0)
  in
  (* Mirror of Net_sim.rebuild. *)
  let rebuild now =
    incr rebuilds;
    Route_tree.rebuild tree ~weight ~alive;
    Tree_mirror.sync mirror;
    record_stats now
  in
  (* Phase-timing shim: [rebuild_s] covers the initial and periodic
     tree rebuilds and the tree updates fault events raise (crashes,
     fades); death-triggered repairs inside a forward walk or an
     accounting tick are attributed to that phase.  Wall-clock only —
     no observable state. *)
  let timed_rebuild f x =
    match phase with
    | None -> f x
    | Some pt ->
      let t0 = pt.clock () in
      f x;
      pt.rebuild_s <- pt.rebuild_s +. (pt.clock () -. t0)
  in
  let rebuild now = timed_rebuild rebuild now in
  let repair_after_death dead now =
    incr rebuilds;
    (match cfg.policy with
    | Routing.Min_energy -> Route_tree.repair_death tree ~weight ~alive ~tie_free:true ~dead
    | Routing.Min_hop | Routing.Max_lifetime -> Route_tree.rebuild tree ~weight ~alive);
    Tree_mirror.sync mirror;
    record_stats now
  in
  let record_death i now =
    let at =
      let d = died_at_raw i in
      if Float.is_nan d then now else d
    in
    deaths := (i, at) :: !deaths;
    note ("death:" ^ Int.to_string i) at;
    repair_after_death i now
  in
  (* The per-packet machinery, instantiated per representation rather
     than parameterised over it: the historic path keeps its code
     verbatim, and the fast path calls the ledger kernels directly — a
     shared closure indirection here would box every float argument on
     the hottest calls in the simulator.  Both branches yield the
     accounting tick and the report-stream registrar; everything else
     (tree maintenance, stats, faults, outcome) is shared above and
     below. *)
  let account_tick, schedule_reports =
    match ledger with
    | None ->
      (* Charge [joules] to node [i]; false once the node is gone (the
         death, if any, has already triggered its repair — as in
         Net_sim.charge). *)
      let charge i now joules =
        let was = alive i in
        Node_agent.charge agents.(i) ~now joules;
        if was && not (alive i) then record_death i now;
        alive i
      in
      let account_all now =
        Array.iter
          (fun agent ->
            let i = Node_agent.id agent in
            let was = alive i in
            Node_agent.account agent ~now;
            if was && not (alive i) then record_death i now)
          agents
      in
      (* Mirror of Net_sim.forward: hop towards the sink, sender pays
         TX, receiver pays RX (the sink listens for free), deaths drop
         the packet.  The one exception is a reader-powered tag hop:
         the serving reader pays the carrier + listen cost even when it
         is the sink — that asymmetry is the whole economics of the
         batteryless class. *)
      let forward src =
        let rec hop node ttl now =
          if ttl <= 0 then incr dropped
          else if node = sink then incr delivered
          else
            let p = parent.(node) in
            if p < 0 || not (alive node) then incr dropped
            else
              let tx_j = Link_layer.cost_tx_j link node p in
              if Float.is_nan tx_j then incr dropped
              else begin
                let sender_ok = charge node now tx_j in
                let receiver_ok =
                  if Link_layer.tag_hop link node then charge p now reader_j
                  else p = sink || charge p now rx_j
                in
                if sender_ok && receiver_ok then hop p (ttl - 1) now else incr dropped
              end
        in
        fun now -> hop src n now
      in
      (* Leaf reporting, staggered by a random phase — drawn in node
         order from the run seed, exactly as Net_sim does.  One report
         closure per node re-arms itself for the whole run. *)
      let schedule_reports () =
        for node = 0 to n - 1 do
          if node <> sink then begin
            let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
            match tier_cfg.Fleet.report_period with
            | None -> ()
            | Some p ->
              let period_s = Time_span.to_seconds p in
              let phase = Rng.uniform rng 0.0 period_s in
              let label = "report:" ^ Int.to_string node in
              let activation_j = Energy.to_joules tier_cfg.Fleet.activation_energy in
              let fwd = forward node in
              let rec report engine =
                if alive node then begin
                  incr generated;
                  let now = clk.Engine.v in
                  (* Sense/convert/compute first; the forward pass
                     charges the radio.  A node that dies
                     mid-activation still counts the report as
                     generated (and dropped), as a dead Net_sim node
                     would. *)
                  if activation_j > 0.0 then ignore (charge node now activation_j);
                  fwd now;
                  Engine.schedule_s ~label engine ~delay_s:period_s report
                end
              in
              Engine.schedule_s ~label engine ~delay_s:phase report
          end
        done
      in
      (account_all, schedule_reports)
    | Some lg ->
      (* [charge], over the columns.  Death handling (and the repair +
         stats it triggers) is identical to the historic wrapper. *)
      let charge i now joules =
        let was = Fleet_ledger.alive lg i in
        Fleet_ledger.charge lg i ~now joules;
        if was && not (Fleet_ledger.alive lg i) then record_death i now;
        Fleet_ledger.alive lg i
      in
      (* [forward], flattened: the recursive hop with its per-hop
         link-layer pricing becomes a loop over [parent] / [hop_tx] /
         [hop_kind] — drop conditions, charges and their order exactly
         as above.  The arrays are re-read on every hop because a
         mid-walk death repairs the tree (and re-prices its subtree)
         before the walk continues, just as the historic walk re-prices
         each hop after a repair. *)
      let forward src now =
        let node = ref src and ttl = ref n and walking = ref true in
        while !walking do
          if !ttl <= 0 then begin incr dropped; walking := false end
          else if !node = sink then begin incr delivered; walking := false end
          else begin
            let u = !node in
            (* [u] ranges over live node ids < n by construction, so
               the per-hop array reads skip the bounds checks, as the
               ledger kernels they feed do. *)
            let p = Array.unsafe_get parent u in
            if p < 0 || not (Fleet_ledger.alive lg u) then begin
              incr dropped;
              walking := false
            end
            else begin
              let tx_j = Array.unsafe_get hop_tx u in
              if Float.is_nan tx_j then begin incr dropped; walking := false end
              else begin
                let sender_ok = charge u now tx_j in
                let receiver_ok =
                  let k = Array.unsafe_get hop_kind u in
                  if k = Link_layer.hop_tag then charge p now reader_j
                  else k = Link_layer.hop_sink_parent || charge p now rx_j
                in
                if sender_ok && receiver_ok then begin
                  node := p;
                  decr ttl
                end
                else begin incr dropped; walking := false end
              end
            end
          end
        done
      in
      (* Report streams on the engine's indexed channel: one shared
         handler plus per-node period/activation columns replace the
         100k per-node closures.  (time, seq) pairs and the RNG phase
         draws are produced in the same node order as the historic
         loop, so the event chronology — and with a trace attached,
         the "report:<n>" labels — are unchanged. *)
      let period = Array.make n 0.0 in
      let activation = Array.make n 0.0 in
      let hid = ref (-1) in
      let report_event e idx =
        if Fleet_ledger.alive lg idx then begin
          incr generated;
          let now = clk.Engine.v in
          if activation.(idx) > 0.0 then ignore (charge idx now activation.(idx) : bool);
          forward idx now;
          (Engine.delay_cell e).v <- period.(idx);
          Engine.schedule_idx_cell e ~handler:!hid ~idx
        end
      in
      let handler = Engine.register_handler ~label:"report" engine report_event in
      hid := handler;
      (* --- batch drain of the report channel ---------------------------
         The engine hands over maximal runs of consecutive report events
         (bounded by the minimum report period, so nothing a batch
         schedules can land inside it).  The sequential replay below is
         the reference: per event, exactly what the engine's loop +
         [report_event] would have done.  The parallel path reproduces
         it bit for bit via the predict-then-commit pattern of
         [Fleet_ledger.account_all]:

         1. walk every report read-only (two passes: charge counts,
            then the flat [(node, time, joules)] charge sequence in
            walk order), in parallel over event chunks — valid
            whenever no alive bit flips inside the batch;
         2. group the charges by node (stable counting sort, so each
            node sees its own charges in global order — per-node order
            is all that reaches a ledger row);
         3. prescan each touched node's sequence read-only
            ([would_die_charges]); any predicted death falls the whole
            batch back to the sequential replay (charges are identical
            prefixes up to the first death, so the prescan cannot miss
            one — see DESIGN.md for the argument);
         4. death-free: commit per node in parallel (disjoint rows),
            then replay counters, fire traces and re-arms sequentially
            in event order. *)
      let note_fire idx time =
        match trace with
        | None -> ()
        | Some tr -> Trace.record tr ~time ("fire:report:" ^ Int.to_string idx)
      in
      let replay_seq e count =
        let times = Engine.batch_times e and idxs = Engine.batch_idxs e in
        for k = 0 to count - 1 do
          let t = Array.unsafe_get times k in
          let idx = Array.unsafe_get idxs k in
          clk.Engine.v <- t;
          note_fire idx t;
          report_event e idx
        done
      in
      (* Batch scratch, grown on demand and reused across batches.
         Event outcome codes: 0 = source dead (no charges, no re-arm),
         1 = delivered, 2 = dropped. *)
      let ev_nc = ref [||] and ev_out = ref [||] and ev_off = ref [||] in
      let ch_node = ref [||] and ch_time = ref [||] and ch_joules = ref [||] in
      let g_time = ref [||] and g_joules = ref [||] in
      let node_end = Array.make n 0 in
      let ensure_i r len =
        if Array.length !r < len then r := Array.make (Stdlib.max len (2 * Array.length !r)) 0
      in
      let ensure_f r len =
        if Array.length !r < len then
          r := Array.make (Stdlib.max len (2 * Array.length !r)) 0.0
      in
      (* One read-only forwarding walk under frozen alive bits: the loop
         of [forward] with every [charge] replaced by [emit]/[count] and
         [sender_ok] by the frozen liveness the prescan will verify.
         Charges to dead receivers are still emitted — the charge kernel
         touches their settlement clock, an observable. *)
      let walk_count idxs k =
        let idx = Array.unsafe_get idxs k in
        if not (Fleet_ledger.alive lg idx) then begin
          (!ev_nc).(k) <- 0;
          (!ev_out).(k) <- 0
        end
        else begin
          let c = ref (if activation.(idx) > 0.0 then 1 else 0) in
          let node = ref idx and ttl = ref n and walking = ref true and code = ref 2 in
          while !walking do
            if !ttl <= 0 then walking := false
            else if !node = sink then begin
              code := 1;
              walking := false
            end
            else begin
              let u = !node in
              let p = Array.unsafe_get parent u in
              if p < 0 || not (Fleet_ledger.alive lg u) then walking := false
              else begin
                let tx_j = Array.unsafe_get hop_tx u in
                if Float.is_nan tx_j then walking := false
                else begin
                  incr c;
                  let kind = Array.unsafe_get hop_kind u in
                  let receiver_ok =
                    if kind = Link_layer.hop_sink_parent then true
                    else begin
                      incr c;
                      Fleet_ledger.alive lg p
                    end
                  in
                  if receiver_ok then begin
                    node := p;
                    decr ttl
                  end
                  else walking := false
                end
              end
            end
          done;
          (!ev_nc).(k) <- !c;
          (!ev_out).(k) <- !code
        end
      in
      let walk_fill times idxs k =
        let idx = Array.unsafe_get idxs k in
        if Fleet_ledger.alive lg idx then begin
          let t = Array.unsafe_get times k in
          let cn = !ch_node and ct = !ch_time and cj = !ch_joules in
          let dst = ref (!ev_off).(k) in
          let emit i j =
            Array.unsafe_set cn !dst i;
            Array.unsafe_set ct !dst t;
            Array.unsafe_set cj !dst j;
            incr dst
          in
          if activation.(idx) > 0.0 then emit idx activation.(idx);
          let node = ref idx and ttl = ref n and walking = ref true in
          while !walking do
            if !ttl <= 0 then walking := false
            else if !node = sink then walking := false
            else begin
              let u = !node in
              let p = Array.unsafe_get parent u in
              if p < 0 || not (Fleet_ledger.alive lg u) then walking := false
              else begin
                let tx_j = Array.unsafe_get hop_tx u in
                if Float.is_nan tx_j then walking := false
                else begin
                  emit u tx_j;
                  let kind = Array.unsafe_get hop_kind u in
                  let receiver_ok =
                    if kind = Link_layer.hop_tag then begin
                      emit p reader_j;
                      Fleet_ledger.alive lg p
                    end
                    else if kind = Link_layer.hop_sink_parent then true
                    else begin
                      emit p rx_j;
                      Fleet_ledger.alive lg p
                    end
                  in
                  if receiver_ok then begin
                    node := p;
                    decr ttl
                  end
                  else walking := false
                end
              end
            end
          done
        end
      in
      let replay_parallel e pool count =
        let times = Engine.batch_times e and idxs = Engine.batch_idxs e in
        let jobs = Domain_pool.jobs pool in
        let chunk = (count + jobs - 1) / jobs in
        ensure_i ev_nc count;
        ensure_i ev_out count;
        ensure_i ev_off (count + 1);
        (* 1a. charge counts + outcomes, parallel over event chunks. *)
        ignore
          (Domain_pool.run pool
             (Array.init jobs (fun j () ->
                  let lo = j * chunk and hi = Stdlib.min count ((j + 1) * chunk) in
                  for k = lo to hi - 1 do
                    walk_count idxs k
                  done))
            : unit array);
        (* Per-event charge offsets (serial prefix sum). *)
        let off = !ev_off in
        off.(0) <- 0;
        for k = 0 to count - 1 do
          off.(k + 1) <- off.(k) + (!ev_nc).(k)
        done;
        let nch = off.(count) in
        ensure_i ch_node nch;
        ensure_f ch_time nch;
        ensure_f ch_joules nch;
        (* 1b. fill the charge sequence, parallel over the same chunks
           (each event writes its own [ev_off] slice). *)
        ignore
          (Domain_pool.run pool
             (Array.init jobs (fun j () ->
                  let lo = j * chunk and hi = Stdlib.min count ((j + 1) * chunk) in
                  for k = lo to hi - 1 do
                    walk_fill times idxs k
                  done))
            : unit array);
        (* 2. stable counting sort by node: after the cursor pass,
           node i's slice is [node_end.(i-1), node_end.(i)). *)
        Array.fill node_end 0 n 0;
        let cn = !ch_node in
        for c = 0 to nch - 1 do
          let i = Array.unsafe_get cn c in
          node_end.(i) <- node_end.(i) + 1
        done;
        let acc = ref 0 in
        for i = 0 to n - 1 do
          let cnt = node_end.(i) in
          node_end.(i) <- !acc;
          acc := !acc + cnt
        done;
        ensure_f g_time nch;
        ensure_f g_joules nch;
        let gt = !g_time and gj = !g_joules in
        let ct = !ch_time and cj = !ch_joules in
        for c = 0 to nch - 1 do
          let i = Array.unsafe_get cn c in
          let dst = node_end.(i) in
          node_end.(i) <- dst + 1;
          Array.unsafe_set gt dst (Array.unsafe_get ct c);
          Array.unsafe_set gj dst (Array.unsafe_get cj c)
        done;
        let slice i = ((if i = 0 then 0 else node_end.(i - 1)), node_end.(i)) in
        (* 3. read-only death prescan, parallel over node ranges. *)
        let nchunk = (n + jobs - 1) / jobs in
        let predicted =
          Domain_pool.run pool
            (Array.init jobs (fun j () ->
                 let lo = j * nchunk and hi = Stdlib.min n ((j + 1) * nchunk) in
                 let any = ref false in
                 for i = lo to hi - 1 do
                   if not !any then begin
                     let slo, shi = slice i in
                     if
                       shi > slo
                       && Fleet_ledger.would_die_charges lg i ~times:gt ~joules:gj ~lo:slo
                            ~hi:shi
                     then any := true
                   end
                 done;
                 !any))
        in
        if Array.exists (fun d -> d) predicted then replay_seq e count
        else begin
          (* 4a. commit per node, parallel: disjoint ledger rows, each
             node's charges in global order. *)
          ignore
            (Domain_pool.run pool
               (Array.init jobs (fun j () ->
                    let lo = j * nchunk and hi = Stdlib.min n ((j + 1) * nchunk) in
                    for i = lo to hi - 1 do
                      let slo, shi = slice i in
                      if shi > slo then
                        Fleet_ledger.commit_charges lg i ~times:gt ~joules:gj ~lo:slo ~hi:shi
                    done))
              : unit array);
          (* 4b. sequential finalize in event order: counters, clock,
             fire traces, re-arms — the engine-visible residue of each
             event, with (time, seq) assignment identical to the
             sequential replay. *)
          let out = !ev_out in
          for k = 0 to count - 1 do
            let t = Array.unsafe_get times k in
            let idx = Array.unsafe_get idxs k in
            clk.Engine.v <- t;
            note_fire idx t;
            let code = Array.unsafe_get out k in
            if code <> 0 then begin
              incr generated;
              if code = 1 then incr delivered else incr dropped;
              (Engine.delay_cell e).v <- Array.unsafe_get period idx;
              Engine.schedule_idx_cell e ~handler:!hid ~idx
            end
          done
        end
      in
      let batch_body e count =
        match pool with
        | Some pool when count >= batch_parallel_min -> replay_parallel e pool count
        | _ -> replay_seq e count
      in
      let batch_fn =
        match phase with
        | None -> batch_body
        | Some pt ->
          fun e count ->
            let t0 = pt.clock () in
            batch_body e count;
            pt.forward_s <- pt.forward_s +. (pt.clock () -. t0)
      in
      let min_period = ref Float.infinity in
      let schedule_reports () =
        for node = 0 to n - 1 do
          if node <> sink then begin
            let tier_cfg = Fleet.config_of fleet fleet.Fleet.tiers.(node) in
            match tier_cfg.Fleet.report_period with
            | None -> ()
            | Some p ->
              let period_s = Time_span.to_seconds p in
              let phase = Rng.uniform rng 0.0 period_s in
              period.(node) <- period_s;
              activation.(node) <- Energy.to_joules tier_cfg.Fleet.activation_energy;
              if period_s < !min_period then min_period := period_s;
              Engine.schedule_idx_s engine ~handler ~idx:node ~delay_s:phase
          end
        done;
        (* Arm the drain once the window is known: every report stream
           re-arms no sooner than the minimum period after its own fire
           time, the engine's no-overtake precondition. *)
        if !min_period > 0.0 && Float.is_finite !min_period then
          Engine.set_batch_handler engine ~handler ~window_s:!min_period batch_fn
      in
      let account_all now =
        Fleet_ledger.account_all ?pool lg ~now ~on_death:(fun i -> record_death i now)
      in
      (account_all, schedule_reports)
  in
  let account_tick =
    match phase with
    | None -> account_tick
    | Some pt ->
      fun now ->
        let t0 = pt.clock () in
        account_tick now;
        pt.account_s <- pt.account_s +. (pt.clock () -. t0)
  in
  rebuild 0.0;
  schedule_reports ();
  let horizon_s = Time_span.to_seconds cfg.horizon in
  (* Periodic residual-aware rebuild, as in Net_sim. *)
  Engine.every_s ~label:"rebuild" engine ~period_s:(Time_span.to_seconds cfg.rebuild_period)
    ~until_s:horizon_s (fun _e ->
      rebuild clk.Engine.v;
      true);
  (* Periodic continuous-flow accounting, as in Lifetime_sim. *)
  Engine.every_s ~label:"account" engine
    ~period_s:(Time_span.to_seconds cfg.accounting_period) ~until_s:horizon_s (fun _e ->
      account_tick clk.Engine.v;
      true);
  (* Fault injection. *)
  List.iter
    (function
      | Fault_plan.Node_crash { node; at } ->
        Engine.schedule_at ~label:("fault:crash:" ^ Int.to_string node) engine at
          (timed_rebuild (fun e ->
               if alive node then begin
                 let now = Engine.now_s e in
                 crash_node node now;
                 record_death node now
               end))
      | Fault_plan.Link_fade { a; b; db; at } ->
        Engine.schedule_at ~label:(Printf.sprintf "fault:fade:%d-%d" a b) engine at
          (timed_rebuild (fun e ->
               let now = Engine.now_s e in
               (* A replaced fade can lower the pair cost (or resurrect a
                  NaN link), which may improve remote paths — only a fade
                  that worsens both directions is eligible for the local
                  tree-edge repair. *)
               let before_ab = Link_layer.weight_j link a b
               and before_ba = Link_layer.weight_j link b a in
               Link_layer.set_fade link ~a ~b ~db;
               let after_ab = Link_layer.weight_j link a b
               and after_ba = Link_layer.weight_j link b a in
               let worsened old_w new_w =
                 if Float.is_nan new_w then true
                 else (not (Float.is_nan old_w)) && new_w >= old_w
               in
               incr rebuilds;
               (match cfg.policy with
               | Routing.Min_energy
                 when worsened before_ab after_ab && worsened before_ba after_ba ->
                 Route_tree.repair_weight_increase tree ~weight ~alive ~tie_free:true ~a ~b
               | _ -> Route_tree.rebuild tree ~weight ~alive);
               Tree_mirror.sync ~fade:(a, b) mirror;
               record_stats now))
      | Fault_plan.Battery_scale _ -> ())
    cfg.faults;
  let end_s = Engine.run_s ~until_s:horizon_s engine in
  account_tick end_s;
  (* Restore the agents from the columns so reporting — and callers
     holding [outcome.agents] — read the run's final state exactly as
     the historic path would have left it. *)
  (match ledger with None -> () | Some lg -> Fleet_ledger.write_back lg agents);
  Stat.close coverage ~time:end_s;
  Stat.close avail ~time:end_s;
  let deaths = List.sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev !deaths) in
  let first_death = match deaths with [] -> None | (_, t) :: _ -> Some (Time_span.seconds t) in
  let dead_at_end = Array.fold_left (fun acc a -> if Node_agent.alive a then acc else acc + 1) 0 agents in
  let sum f =
    Energy.joules
      (Array.fold_left (fun acc a -> acc +. Energy.to_joules (f a)) 0.0 agents)
  in
  let time_avg tw = let v = Stat.time_average tw in if Float.is_nan v then 1.0 else v in
  {
    generated = !generated;
    delivered = !delivered;
    dropped = !dropped;
    delivery_ratio =
      (if !generated = 0 then 0.0 else Float.of_int !delivered /. Float.of_int !generated);
    first_death;
    deaths = List.map (fun (i, t) -> (i, Time_span.seconds t)) deaths;
    dead_at_end;
    energy_spent = sum Node_agent.consumed_energy;
    energy_harvested = sum Node_agent.harvested_energy;
    availability = time_avg avail;
    mean_coverage = time_avg coverage;
    rebuilds = !rebuilds;
    events = Engine.event_count engine;
    agents;
  }

let run ?trace cfg ~seed =
  run_with_router ?trace ~router:cfg.fleet.Fleet.router cfg ~seed

(* Independent-scenario sweep.  Each seed's run builds its own engine,
   agents and link layer; the shared fleet (topology, tiers, routing
   cache) is only read.  The one shared-mutation hazard is the router's
   distance memo (fade faults write per-distance energies through it),
   so parallel shards run through [Routing.with_private_memo] clones —
   the memo is a pure cache, so outcomes stay bitwise identical to the
   sequential sweep at every [jobs]. *)
let run_many ?(jobs = 1) cfg ~seeds =
  let jobs = Stdlib.max 1 jobs in
  if jobs = 1 || Array.length seeds <= 1 then
    Array.map (fun seed -> run cfg ~seed) seeds
  else
    let fade_free =
      List.for_all
        (function Fault_plan.Link_fade _ -> false | _ -> true)
        cfg.faults
    in
    let router_for_shard () =
      if fade_free then cfg.fleet.Fleet.router
      else Routing.with_private_memo cfg.fleet.Fleet.router
    in
    Domain_pool.with_pool ~jobs (fun pool ->
        Domain_pool.run pool
          (Array.map
             (fun seed () -> run_with_router ~router:(router_for_shard ()) cfg ~seed)
             seeds))
