(* Per-layer measurements for the traced run.  Each probe times calls
   into one module's public functions from here, on the workload's own
   fleet, so a regression names its layer without any timer inside the
   program. *)

module Fleet = Amb_system.Fleet
module Fleet_ledger = Amb_system.Fleet_ledger
module Link_layer = Amb_system.Link_layer
module Node_agent = Amb_system.Node_agent
module Fault_plan = Amb_system.Fault_plan
module Routing = Amb_net.Routing
module Route_tree = Amb_net.Route_tree
module Spatial = Amb_net.Spatial
module Topology = Amb_net.Topology
module Engine = Amb_sim.Engine
module Rng = Amb_sim.Rng

type metric = { name : string; unit : string; value : float }

let clock = Unix.gettimeofday

let time f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- tree helpers shared by the probes and the hop count ---------- *)

let new_tree (fleet : Fleet.t) ~router =
  Route_tree.create ?csr:(Routing.adjacency router) ~n:(Fleet.node_count fleet)
    ~sink:fleet.Fleet.sink ()

(* Cosim's parent encoding: -1 for the sink, -2 for an orphan or a dead
   node. *)
let parents (fleet : Fleet.t) tree ~alive =
  Array.init (Fleet.node_count fleet) (fun i ->
      if i = fleet.Fleet.sink then -1
      else
        let p = Route_tree.parent tree i in
        if p < 0 || not (alive i) then -2 else p)

let in_range_pairs (router : Routing.t) f =
  match Routing.adjacency router with
  | Some (offsets, neighbors) ->
    for u = 0 to Array.length offsets - 2 do
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        f u neighbors.(k)
      done
    done
  | None -> (
    match router.Routing.cache with
    | Routing.Dense grid ->
      let n = Topology.node_count router.Routing.topology in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && not (Float.is_nan grid.((u * n) + v)) then f u v
        done
      done
    | Routing.Sparse _ -> ())

let count_pairs router =
  let c = ref 0 in
  in_range_pairs router (fun _ _ -> incr c);
  !c

(* ---- cosim.hops ------------------------------------------------------
   The hops a run's forward walks make, counted on the benchmark's own
   Route_tree over the same router: the tree is rebuilt at t=0 and taken
   through the fault plan in time order exactly as Cosim repairs it, and
   between faults every report fired by a live source walks the tree.  A
   hop is one sender transmission.  Battery deaths and periodic rebuilds
   inside the horizon are not replayed; [generated] and [delivered]
   come back so the caller can confirm the replay matched Cosim. *)
type hop_count = { generated : int; delivered : int; hops : int }

let count_hops (fleet : Fleet.t) ~router ~faults ~phase_seed ~horizon_s =
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let link = Link_layer.create ~router ~mode:Link_layer.Cached () in
  let alive = Array.make n true in
  let is_alive i = alive.(i) in
  let weight = Link_layer.weight_j link in
  let tree = new_tree fleet ~router in
  Route_tree.rebuild tree ~weight ~alive:is_alive;
  let rng = Rng.create phase_seed in
  let period = Array.make n Float.nan and next = Array.make n Float.infinity in
  for node = 0 to n - 1 do
    if node <> sink then
      match (Fleet.config_of fleet fleet.Fleet.tiers.(node)).Fleet.report_period with
      | None -> ()
      | Some p ->
        let p = Amb_units.Time_span.to_seconds p in
        period.(node) <- p;
        next.(node) <- Rng.uniform rng 0.0 p
  done;
  let at = function
    | Fault_plan.Node_crash { at; _ } | Fault_plan.Link_fade { at; _ } ->
      Amb_units.Time_span.to_seconds at
    | Fault_plan.Battery_scale _ -> 0.0
  in
  let faults =
    List.stable_sort
      (fun a b -> Float.compare (at a) (at b))
      (List.filter (function Fault_plan.Battery_scale _ -> false | _ -> true) faults)
  in
  (* Per-interval memo of (hops, reaches sink) per node, stamped by
     interval so it never needs clearing. *)
  let stamp = Array.make n (-1) and memo_hops = Array.make n 0 and memo_ok = Array.make n false in
  let chain = Array.make n 0 in
  let epoch = ref 0 in
  let set v h ok =
    stamp.(v) <- !epoch;
    memo_hops.(v) <- h;
    memo_ok.(v) <- ok
  in
  let walk src =
    (* Climb to the first node whose result is known, then unwind: each
       chained node is one hop above the next. *)
    let top = ref 0 and u = ref src and resolved = ref false in
    while not !resolved do
      let v = !u in
      if stamp.(v) = !epoch then resolved := true
      else if v = sink then begin
        set v 0 true;
        resolved := true
      end
      else
        let p = Route_tree.parent tree v in
        if p < 0 || (not alive.(v)) || Float.is_nan (Link_layer.cost_tx_j link v p) then begin
          set v 0 false;
          resolved := true
        end
        else if p <> sink && not alive.(p) then begin
          (* The hop is made; the dead receiver drops the packet. *)
          set v 1 false;
          resolved := true
        end
        else begin
          chain.(!top) <- v;
          incr top;
          u := p
        end
    done;
    let h = ref memo_hops.(!u) and ok = memo_ok.(!u) in
    for k = !top - 1 downto 0 do
      incr h;
      set chain.(k) !h ok
    done;
    (memo_hops.(src), memo_ok.(src))
  in
  let generated = ref 0 and delivered = ref 0 and hops = ref 0 in
  let fire_until limit ~inclusive =
    incr epoch;
    for node = 0 to n - 1 do
      if alive.(node) then
        while next.(node) < limit || (inclusive && next.(node) = limit) do
          incr generated;
          let h, ok = walk node in
          hops := !hops + h;
          if ok then incr delivered;
          next.(node) <- next.(node) +. period.(node)
        done
    done
  in
  List.iter
    (fun fault ->
      let t = at fault in
      if t <= horizon_s then begin
        fire_until t ~inclusive:false;
        match fault with
        | Fault_plan.Node_crash { node; _ } ->
          if alive.(node) then begin
            alive.(node) <- false;
            Route_tree.repair_death tree ~weight ~alive:is_alive ~tie_free:true ~dead:node
          end
        | Fault_plan.Link_fade { a; b; db; _ } ->
          let before_ab = weight a b and before_ba = weight b a in
          Link_layer.set_fade link ~a ~b ~db;
          let worsened o w = Float.is_nan w || ((not (Float.is_nan o)) && w >= o) in
          if worsened before_ab (weight a b) && worsened before_ba (weight b a) then
            Route_tree.repair_weight_increase tree ~weight ~alive:is_alive ~tie_free:true ~a ~b
          else Route_tree.rebuild tree ~weight ~alive:is_alive
        | Fault_plan.Battery_scale _ -> ()
      end)
    faults;
  fire_until horizon_s ~inclusive:true;
  { generated = !generated; delivered = !delivered; hops = !hops }

(* ---- Engine / Calendar_queue ---------------------------------------
   [streams] indexed report streams re-arming every [period_s] through
   the engine's indexed channel, as Cosim's report handler does; the
   pending population is [streams], so a city-sized replay runs on the
   calendar queue and a legacy-sized one on the binary heap. *)
let engine_replay ~streams ~period_s ~seed =
  let fires = Stdlib.max 6 ((2_000_000 + streams - 1) / streams) in
  let e = Engine.create () in
  let hid = ref (-1) in
  let h =
    Engine.register_handler e (fun e idx ->
        (Engine.delay_cell e).Engine.v <- period_s;
        Engine.schedule_idx_cell e ~handler:!hid ~idx)
  in
  hid := h;
  let r = Rng.create seed in
  for idx = 0 to streams - 1 do
    Engine.schedule_idx_s e ~handler:h ~idx ~delay_s:(Rng.uniform r 0.0 period_s)
  done;
  let w0 = Gc.minor_words () in
  let (_ : float), dt = time (fun () -> Engine.run_s ~until_s:(period_s *. Float.of_int fires) e) in
  let words = Gc.minor_words () -. w0 in
  let events = Float.of_int (Engine.event_count e) in
  [
    { name = "engine.ns_per_event"; unit = "ns"; value = dt *. 1e9 /. events };
    { name = "engine.minor_words_per_event"; unit = "words"; value = words /. events };
  ]

(* ---- Fleet_ledger --------------------------------------------------- *)
let ledger (fleet : Fleet.t) ~parent =
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let agents =
    Array.init n (fun i ->
        Node_agent.create ~id:i ~cfg:(Fleet.config_of fleet fleet.Fleet.tiers.(i)) ())
  in
  let lg = Fleet_ledger.of_agents agents in
  let rounds = Stdlib.max 2 (2_000_000 / n) in
  let now = ref 0.0 in
  let joules = 1e-9 in
  let (), id_s =
    time (fun () ->
        for _ = 1 to rounds do
          now := !now +. 1.0;
          for i = 0 to n - 1 do
            Fleet_ledger.charge lg i ~now:!now joules
          done
        done)
  in
  (* The forward walk's pattern: every source in id order charges its
     parent chain, sender then receiver, the sink listening free. *)
  let charges = ref 0 in
  let (), route_s =
    time (fun () ->
        now := !now +. 1.0;
        for src = 0 to n - 1 do
          let u = ref src in
          while !u <> sink && parent.(!u) >= 0 do
            let p = parent.(!u) in
            Fleet_ledger.charge lg !u ~now:!now joules;
            incr charges;
            if p <> sink then begin
              Fleet_ledger.charge lg p ~now:!now joules;
              incr charges
            end;
            u := p
          done
        done)
  in
  let ticks = Stdlib.max 3 (2_000_000 / n) in
  let tick_s =
    List.init ticks (fun _ ->
        now := !now +. 600.0;
        snd (time (fun () -> Fleet_ledger.account_all lg ~now:!now ~on_death:ignore)))
  in
  [
    {
      name = "fleet_ledger.charge_ns_id_order";
      unit = "ns";
      value = id_s *. 1e9 /. Float.of_int (rounds * n);
    };
    {
      name = "fleet_ledger.charge_ns_route_order";
      unit = "ns";
      value = route_s *. 1e9 /. Float.of_int (Stdlib.max 1 !charges);
    };
    { name = "fleet_ledger.account_all_ms"; unit = "ms"; value = median tick_s *. 1e3 };
    {
      name = "fleet_ledger.words_per_node";
      unit = "words";
      value = Float.of_int (Fleet_ledger.words lg) /. Float.of_int n;
    };
  ]

(* [k] distinct tree edges (node, parent) of random live nodes. *)
let tree_edges (fleet : Fleet.t) ~parent ~seed ~k =
  let r = Rng.create seed in
  let candidates =
    List.filter (fun i -> parent.(i) >= 0) (List.init (Fleet.node_count fleet) Fun.id)
  in
  let pool = Array.of_list candidates in
  Rng.shuffle r pool;
  Array.to_list
    (Array.map (fun i -> (i, parent.(i))) (Array.sub pool 0 (Stdlib.min k (Array.length pool))))

(* ---- Link_layer ----------------------------------------------------- *)
let link_layer (fleet : Fleet.t) ~router ~parent ~seed =
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let router = Routing.with_private_memo router in
  let link = Link_layer.create ~router ~mode:Link_layer.Cached () in
  let tx_j = Array.make n Float.nan and hop_kind = Array.make n 0 in
  let refresh_ms () =
    let reps = Stdlib.max 3 (1_000_000 / n) in
    median
      (List.init reps (fun _ ->
           snd
             (time (fun () ->
                  Link_layer.refresh_hop_tariffs link ~sink ~parent ~tx_j ~hop_kind))))
    *. 1e3
  in
  let weight_ns () =
    let calls = ref 0 and acc = ref 0.0 in
    let (), dt =
      time (fun () ->
          in_range_pairs router (fun u v ->
              incr calls;
              acc := !acc +. Link_layer.weight_j link u v))
    in
    ignore (Sys.opaque_identity !acc);
    dt *. 1e9 /. Float.of_int (Stdlib.max 1 !calls)
  in
  let plain_refresh = refresh_ms () in
  let plain_weight = weight_ns () in
  List.iter
    (fun (a, b) -> Link_layer.set_fade link ~a ~b ~db:20.0)
    (tree_edges fleet ~parent ~seed ~k:50);
  let faded_refresh = refresh_ms () in
  let faded_weight = weight_ns () in
  [
    { name = "link_layer.refresh_ms"; unit = "ms"; value = plain_refresh };
    { name = "link_layer.refresh_ms_faded"; unit = "ms"; value = faded_refresh };
    { name = "link_layer.weight_ns"; unit = "ns"; value = plain_weight };
    { name = "link_layer.weight_ns_faded"; unit = "ns"; value = faded_weight };
  ]

(* ---- Route_tree ----------------------------------------------------- *)
let route_tree (fleet : Fleet.t) ~router ~seed =
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let router = Routing.with_private_memo router in
  let link = Link_layer.create ~router ~mode:Link_layer.Cached () in
  let weight = Link_layer.weight_j link in
  let alive = Array.make n true in
  let is_alive i = alive.(i) in
  let tree = new_tree fleet ~router in
  let rebuild_s =
    List.init 3 (fun _ -> snd (time (fun () -> Route_tree.rebuild tree ~weight ~alive:is_alive)))
  in
  let r = Rng.create seed in
  let victims = Array.init (n - 1) (fun k -> if k < sink then k else k + 1) in
  Rng.shuffle r victims;
  let deaths = Stdlib.min 100 (n / 10) in
  let (), death_s =
    time (fun () ->
        for k = 0 to deaths - 1 do
          let dead = victims.(k) in
          alive.(dead) <- false;
          Route_tree.repair_death tree ~weight ~alive:is_alive ~tie_free:true ~dead
        done)
  in
  let parent = parents fleet tree ~alive:is_alive in
  let edges = tree_edges fleet ~parent ~seed:(seed + 1) ~k:50 in
  let (), fade_s =
    time (fun () ->
        List.iter
          (fun (a, b) ->
            Link_layer.set_fade link ~a ~b ~db:20.0;
            Route_tree.repair_weight_increase tree ~weight ~alive:is_alive ~tie_free:true ~a ~b)
          edges)
  in
  [
    { name = "route_tree.rebuild_ms"; unit = "ms"; value = median rebuild_s *. 1e3 };
    {
      name = "route_tree.repair_death_us";
      unit = "us";
      value = death_s *. 1e6 /. Float.of_int (Stdlib.max 1 deaths);
    };
    {
      name = "route_tree.repair_weight_increase_us";
      unit = "us";
      value = fade_s *. 1e6 /. Float.of_int (Stdlib.max 1 (List.length edges));
    };
  ]

(* ---- Routing / Spatial / Rng ---------------------------------------- *)
let routing (fleet : Fleet.t) =
  let r = fleet.Fleet.router in
  let router, dt =
    time (fun () ->
        Routing.make ~topology:fleet.Fleet.topology ~link:r.Routing.link
          ~packet:r.Routing.packet ())
  in
  [
    {
      name = "routing.csr_ns_per_edge";
      unit = "ns";
      value = dt *. 1e9 /. Float.of_int (Stdlib.max 1 (count_pairs router));
    };
  ]

let spatial (fleet : Fleet.t) =
  let topo = fleet.Fleet.topology in
  let range_m = fleet.Fleet.router.Routing.range_m in
  let xs = Array.map (fun p -> p.Topology.x) topo.Topology.positions in
  let ys = Array.map (fun p -> p.Topology.y) topo.Topology.positions in
  let index =
    Spatial.make ~xs ~ys ~width_m:topo.Topology.width_m ~height_m:topo.Topology.height_m
      ~cell_m:range_m
  in
  let n = Array.length xs in
  let rounds = Stdlib.max 1 (200_000 / n) in
  let found = ref 0 in
  let (), dt =
    time (fun () ->
        for _ = 1 to rounds do
          for i = 0 to n - 1 do
            Spatial.iter_within index i ~range_m (fun _ _ -> incr found)
          done
        done)
  in
  [
    {
      name = "spatial.iter_within_ns";
      unit = "ns";
      value = dt *. 1e9 /. Float.of_int (rounds * n);
    };
  ]

let rng ~seed =
  let r = Rng.create seed in
  let buf = Float.Array.make 4096 0.0 in
  let blocks = 2500 in
  let (), dt =
    time (fun () ->
        for _ = 1 to blocks do
          Rng.fill_floats r buf
        done)
  in
  [
    {
      name = "rng.fill_ns_per_draw";
      unit = "ns";
      value = dt *. 1e9 /. Float.of_int (blocks * Float.Array.length buf);
    };
  ]

(* ---- Experiments ---------------------------------------------------- *)
let family id =
  match id with
  | "E25" | "E26" | "E27" | "E31" | "E32" -> "cosim"
  | "E11" | "E20" -> "net_sim"
  | "E16" -> "mac_sim"
  | "E12" | "E14" | "E21" -> "event_sim"
  | "E18" -> "monte_carlo"
  | _ -> "analytic"

let families = [ "cosim"; "net_sim"; "mac_sim"; "event_sim"; "monte_carlo"; "analytic" ]

(* One pass over every builder, timed one by one and summed per family;
   returns the metrics and the pass's (id, desc, report) results. *)
let experiments () =
  let totals = Hashtbl.create 8 in
  let results =
    List.map
      (fun (id, desc, build) ->
        let report, dt = time build in
        let f = family id in
        Hashtbl.replace totals f (dt +. Option.value (Hashtbl.find_opt totals f) ~default:0.0);
        (id, desc, report))
      Amb_core.Experiments.all
  in
  ( List.map
      (fun f ->
        {
          name = "experiments." ^ f ^ "_s";
          unit = "s";
          value = Option.value (Hashtbl.find_opt totals f) ~default:0.0;
        })
      families,
    results )
