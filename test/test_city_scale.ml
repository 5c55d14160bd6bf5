(* City-scale fast-path oracles: every structure the large-fleet path
   swaps in (spatial grid, CSR routing cache, CSR route tree, calendar
   event queue, sharded construction) is checked for exact agreement
   with the historic O(n^2)/heap implementation it replaces — the same
   bits, not just the same statistics. *)

open Amb_circuit
open Amb_radio
open Amb_net

let count = 100

(* --- spatial grid vs brute-force pair scan --------------------------- *)

let prop_spatial_neighbors =
  QCheck.Test.make ~name:"spatial neighbors_within matches the pair scan" ~count
    QCheck.(pair small_nat (float_range 10.0 200.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (7000 + seed) in
      let n = 1 + Amb_sim.Rng.int rng 120 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:250.0 in
      let index = Topology.spatial topo ~cell_m:range_m in
      List.for_all
        (fun i ->
          let brute = ref [] in
          for j = n - 1 downto 0 do
            if j <> i && Topology.pair_distance topo i j <= range_m then brute := j :: !brute
          done;
          Spatial.neighbors_within index i ~range_m = !brute
          && Spatial.degree index i ~range_m = List.length !brute)
        (List.init n Fun.id))

let prop_spatial_distances =
  QCheck.Test.make ~name:"spatial iter_within reports exact distances" ~count
    QCheck.(pair small_nat (float_range 20.0 150.0))
    (fun (seed, range_m) ->
      let rng = Amb_sim.Rng.create (8000 + seed) in
      let n = 2 + Amb_sim.Rng.int rng 80 in
      let topo = Topology.random rng ~nodes:n ~width_m:200.0 ~height_m:200.0 in
      let index = Topology.spatial topo ~cell_m:range_m in
      let ok = ref true in
      for i = 0 to n - 1 do
        Spatial.iter_within index i ~range_m (fun j d ->
            (* Bit-identical to the historic scan's Float.hypot. *)
            if d <> Topology.pair_distance topo i j then ok := false)
      done;
      !ok)

(* Above the size threshold Topology.connectivity routes through the
   grid: the graph must be identical to the brute-force build — same
   edges, same weights, same insertion order (checked via Dijkstra,
   which is sensitive to adjacency order on equal-cost ties). *)
let test_connectivity_grid_tier () =
  let rng = Amb_sim.Rng.create 4242 in
  let n = 600 (* > Topology.spatial_threshold *) in
  let topo = Topology.random rng ~nodes:n ~width_m:2000.0 ~height_m:2000.0 in
  let range_m = 150.0 in
  let g = Topology.connectivity topo ~range_m in
  let brute = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Topology.pair_distance topo i j in
      if d <= range_m then Graph.add_undirected brute i j ~weight:d
    done
  done;
  Alcotest.(check int) "edge count" (Graph.edge_count brute) (Graph.edge_count g);
  let dist_b, prev_b = Graph.dijkstra brute ~src:0 in
  let dist_g, prev_g = Graph.dijkstra g ~src:0 in
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "dist %d" i) dist_b.(i) dist_g.(i);
    Alcotest.(check int) (Printf.sprintf "prev %d" i) prev_b.(i) prev_g.(i)
  done

(* --- calendar queue vs binary-heap order ----------------------------- *)

let prop_calendar_pop_order =
  QCheck.Test.make ~name:"calendar queue pops in binary-heap order" ~count
    QCheck.(list (float_bound_inclusive 1e6))
    (fun times ->
      (* Sprinkle far-future and infinite times to exercise the
         overflow chain alongside the calendar proper. *)
      let times =
        List.concat_map
          (fun t -> if t < 10.0 then [ t; t +. 1e17; Float.infinity ] else [ t ])
          times
      in
      let cal = Amb_sim.Calendar_queue.create ~null_a:0 ~null_b:"" () in
      let heap = Amb_sim.Event_queue.create () in
      List.iteri
        (fun i t ->
          Amb_sim.Calendar_queue.push cal ~time:t ~seq:i ~i1:i ~i2:(-i) i "";
          Amb_sim.Event_queue.push heap ~time:t i)
        times;
      let ok = ref true in
      List.iter
        (fun (t, i) ->
          if
            not
              (Amb_sim.Calendar_queue.min_time cal = t
              && Amb_sim.Calendar_queue.pop cal
              && Amb_sim.Calendar_queue.out_time cal = t
              && Amb_sim.Calendar_queue.out_a cal = i
              && Amb_sim.Calendar_queue.out_i1 cal = i
              && Amb_sim.Calendar_queue.out_i2 cal = -i)
          then ok := false)
        (Amb_sim.Event_queue.drain heap);
      !ok && Amb_sim.Calendar_queue.length cal = 0)

let prop_calendar_interleaved =
  QCheck.Test.make ~name:"calendar queue matches heap under interleaved push/pop" ~count
    QCheck.(small_nat)
    (fun seed ->
      let rng = Amb_sim.Rng.create (9000 + seed) in
      let cal = Amb_sim.Calendar_queue.create ~null_a:(-1) ~null_b:"" () in
      let heap = Amb_sim.Event_queue.create () in
      let seq = ref 0 in
      let clock = ref 0.0 in
      let ok = ref true in
      for _ = 1 to 400 do
        if Amb_sim.Rng.int rng 3 > 0 || Amb_sim.Event_queue.is_empty heap then begin
          (* Engine-style push: never in the past, occasionally tied. *)
          let t = !clock +. Amb_sim.Rng.uniform rng 0.0 50.0 in
          let t = if Amb_sim.Rng.int rng 8 = 0 then !clock else t in
          Amb_sim.Calendar_queue.push cal ~time:t ~seq:!seq ~i1:0 ~i2:0 !seq "";
          Amb_sim.Event_queue.push heap ~time:t !seq;
          incr seq
        end
        else
          match Amb_sim.Event_queue.pop heap with
          | None -> ()
          | Some (t, i) ->
            clock := t;
            if
              not
                (Amb_sim.Calendar_queue.pop cal
                && Amb_sim.Calendar_queue.out_time cal = t
                && Amb_sim.Calendar_queue.out_a cal = i)
            then ok := false
      done;
      !ok && Amb_sim.Calendar_queue.length cal = Amb_sim.Event_queue.length heap)

(* The engine must produce the identical event chronology on both queue
   tiers: same callbacks, same clock readings, same final time. *)
let test_engine_calendar_equiv () =
  let run ~calendar_threshold =
    let e = Amb_sim.Engine.create ~calendar_threshold () in
    let rng = Amb_sim.Rng.create 77 in
    let log = Buffer.create 4096 in
    for i = 0 to 1999 do
      let t = Amb_sim.Rng.uniform rng 0.0 500.0 in
      Amb_sim.Engine.schedule_at_s e t (fun e ->
          Buffer.add_string log
            (Printf.sprintf "%d@%.17g;" i (Amb_sim.Engine.now_s e)))
    done;
    for k = 0 to 19 do
      Amb_sim.Engine.every_s e ~period_s:(3.0 +. Float.of_int k) ~until_s:450.0 (fun e ->
          Buffer.add_string log (Printf.sprintf "p%d@%.17g;" k (Amb_sim.Engine.now_s e));
          true)
    done;
    let final = Amb_sim.Engine.run_s ~until_s:480.0 e in
    (Buffer.contents log, final, Amb_sim.Engine.event_count e)
  in
  let log_h, final_h, count_h = run ~calendar_threshold:max_int in
  let log_c, final_c, count_c = run ~calendar_threshold:16 in
  Alcotest.(check string) "event chronology" log_h log_c;
  Alcotest.(check (float 0.0)) "final clock" final_h final_c;
  Alcotest.(check int) "events executed" count_h count_c

(* --- sparse routing cache vs dense grid ------------------------------ *)

let default_link () =
  Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()

let prop_sparse_routing_equiv =
  QCheck.Test.make ~name:"sparse routing cache matches the dense grid" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (5000 + seed) in
      let n = 20 + Amb_sim.Rng.int rng 80 in
      let topo = Topology.random rng ~nodes:n ~width_m:400.0 ~height_m:400.0 in
      let link = default_link () in
      let packet = Packet.sensor_report in
      let dense = Routing.make ~topology:topo ~link ~packet () in
      let sparse = Routing.make ~dense_threshold:0 ~topology:topo ~link ~packet () in
      let same = ref (Routing.adjacency dense = None && Routing.adjacency sparse <> None) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let a = Routing.sender_energy_j dense i j
            and b = Routing.sender_energy_j sparse i j in
            if not ((Float.is_nan a && Float.is_nan b) || a = b) then same := false
          end
        done
      done;
      let residual _ = Amb_units.Energy.joules 1.0 in
      let da, _ = Graph.dijkstra (Routing.build_graph dense ~policy:Routing.Min_energy ~residual) ~src:0 in
      let db, _ = Graph.dijkstra (Routing.build_graph sparse ~policy:Routing.Min_energy ~residual) ~src:0 in
      !same && Array.for_all2 (fun a b -> a = b) da db)

(* Random layouts seeded with pairs on one row (or one column) at
   exactly the radio range and one ulp either side: [hypot d 0 = d], so
   their distances sit inside the spatial scan's guard band, where the
   squared-distance test must defer to [Float.hypot].  The CSR and every
   spatial query are checked against the brute-force pair scan. *)
let boundary_layout seed =
  let rng = Amb_sim.Rng.create (11_000 + seed) in
  let link = default_link () in
  let range_m = Link_budget.max_range link ~tx_dbm:link.Link_budget.radio.Radio_frontend.max_tx_dbm in
  let width_m = 5.0 *. range_m and height_m = 3.0 *. range_m in
  let points = ref [] in
  for _ = 1 to 40 + Amb_sim.Rng.int rng 100 do
    points :=
      { Topology.x = Amb_sim.Rng.uniform rng 0.0 width_m; y = Amb_sim.Rng.uniform rng 0.0 height_m }
      :: !points
  done;
  (* [a + d] with [(a + d) - a = d] exactly, else [0 + d]. *)
  let offset_by d a = if (a +. d) -. a = d then (a, a +. d) else (0.0, d) in
  List.iter
    (fun d ->
      for _ = 1 to 2 do
        let y = Amb_sim.Rng.uniform rng 0.0 height_m in
        let x0, x1 = offset_by d (Amb_sim.Rng.uniform rng 0.0 (width_m -. range_m -. 1.0)) in
        points := { Topology.x = x0; y } :: { Topology.x = x1; y } :: !points;
        let x = Amb_sim.Rng.uniform rng 0.0 width_m in
        let y0, y1 = offset_by d (Amb_sim.Rng.uniform rng 0.0 (height_m -. range_m -. 1.0)) in
        points := { Topology.x = x; y = y0 } :: { Topology.x = x; y = y1 } :: !points
      done)
    [ range_m; Float.pred range_m; Float.succ range_m ];
  (* Shuffle, so boundary pairs land on forward and backward rows. *)
  let points = Array.of_list !points in
  for i = Array.length points - 1 downto 1 do
    let j = Amb_sim.Rng.int rng (i + 1) in
    let p = points.(i) in
    points.(i) <- points.(j);
    points.(j) <- p
  done;
  (Topology.of_positions ~width_m ~height_m points, link, range_m)

let brute_rows topo ~range_m =
  let n = Topology.node_count topo in
  Array.init n (fun i ->
      List.filter
        (fun j -> j <> i && Topology.pair_distance topo i j <= range_m)
        (List.init n Fun.id))

let prop_boundary_csr =
  QCheck.Test.make ~name:"CSR matches the pair scan at the range boundary" ~count:30
    QCheck.small_nat
    (fun seed ->
      let topo, link, range_m = boundary_layout seed in
      let rows = brute_rows topo ~range_m in
      let n = Topology.node_count topo in
      let check jobs =
        let router =
          Routing.make ~dense_threshold:0 ~jobs ~topology:topo ~link ~packet:Packet.sensor_report ()
        in
        match router.Routing.cache with
        | Routing.Dense _ -> false
        | Routing.Sparse { offsets; neighbors; edge_tx_j } ->
          router.Routing.range_m = range_m
          && List.for_all
               (fun i ->
                 let row = List.init (offsets.(i + 1) - offsets.(i)) (fun k -> offsets.(i) + k) in
                 List.map (fun k -> neighbors.(k)) row = rows.(i)
                 && List.for_all
                      (fun k ->
                        let d = Topology.pair_distance topo i neighbors.(k) in
                        Int64.equal
                          (Int64.bits_of_float edge_tx_j.(k))
                          (Int64.bits_of_float (Routing.tx_energy_j_at router ~distance_m:d)))
                      row)
               (List.init n Fun.id)
      in
      check 1 && check 3)

let prop_boundary_spatial =
  QCheck.Test.make ~name:"spatial queries match the pair scan at the range boundary" ~count:30
    QCheck.small_nat
    (fun seed ->
      let topo, _, range_m = boundary_layout seed in
      let rows = brute_rows topo ~range_m in
      let n = Topology.node_count topo in
      let index = Topology.spatial topo ~cell_m:range_m in
      let ids = Array.make n (-1) and dists = Array.make n Float.nan in
      List.for_all
        (fun i ->
          let seen = ref [] in
          Spatial.iter_within index i ~range_m (fun j d -> seen := (j, d) :: !seen);
          let stop = Spatial.fill_within index i ~range_m ids dists 0 in
          let filled = Array.to_list (Array.sub ids 0 stop) in
          Spatial.degree index i ~range_m = List.length rows.(i)
          && Spatial.neighbors_within index i ~range_m = rows.(i)
          && filled = rows.(i)
          && List.sort compare !seen
             = List.map (fun j -> (j, Topology.pair_distance topo i j)) rows.(i)
          && List.for_all
               (fun k -> ids.(k) < i || dists.(k) = Topology.pair_distance topo i ids.(k))
               (List.init stop Fun.id))
        (List.init n Fun.id))

(* The parallel CSR edge-energy fill is a pure function of positions:
   jobs must not move a bit.  n is sized so the fill crosses the 4096-
   edge threshold that actually engages the pool. *)
let test_sparse_fill_jobs_independent () =
  let rng = Amb_sim.Rng.create 31 in
  let n = 150 in
  let topo = Topology.random rng ~nodes:n ~width_m:250.0 ~height_m:250.0 in
  let link = default_link () in
  let packet = Packet.sensor_report in
  let r1 = Routing.make ~dense_threshold:0 ~jobs:1 ~topology:topo ~link ~packet () in
  let r3 = Routing.make ~dense_threshold:0 ~jobs:3 ~topology:topo ~link ~packet () in
  (match Routing.adjacency r1 with
  | Some (offsets, _) ->
    Alcotest.(check bool) "fill crossed the parallel threshold" true
      (offsets.(n) >= 4096)
  | None -> Alcotest.fail "expected sparse cache");
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = Routing.sender_energy_j r1 i j and b = Routing.sender_energy_j r3 i j in
        let same = (Float.is_nan a && Float.is_nan b) || a = b in
        if not same then
          Alcotest.failf "pair (%d,%d): jobs=1 gives %.17g, jobs=3 gives %.17g" i j a b
      end
    done
  done

(* Golden digest of a city-scale CSR: MD5 over [offsets], [neighbors]
   and the bits of every [edge_tx_j], pinned from the two-scan build
   that priced both directions of every pair.  The dense-vs-sparse property above stops
   at 100 nodes; this one covers ~1.6e5 undirected pairs, so any change
   to the scan, the row order or the energy of one edge moves it. *)
let csr_digest router =
  match router.Routing.cache with
  | Routing.Dense _ -> Alcotest.fail "expected the sparse cache"
  | Routing.Sparse { offsets; neighbors; edge_tx_j } ->
    let b = Buffer.create (8 * (Array.length offsets + (2 * Array.length neighbors))) in
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) offsets;
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) neighbors;
    Array.iter (fun e -> Buffer.add_int64_le b (Int64.bits_of_float e)) edge_tx_j;
    Digest.to_hex (Digest.string (Buffer.contents b))

let golden_csr_digest = "1d33bebf1dd1b26b7660f57da5bf8798"

let test_city_csr_golden () =
  let digest jobs =
    csr_digest (Amb_system.Fleet.city ~jobs ~nodes:20_000 ~seed:7 ()).Amb_system.Fleet.router
  in
  Alcotest.(check string) "jobs=1" golden_csr_digest (digest 1);
  Alcotest.(check string) "jobs=2" golden_csr_digest (digest 2)

(* --- CSR route tree vs dense sweeps ---------------------------------- *)

let prop_route_tree_csr_equiv =
  QCheck.Test.make ~name:"CSR route tree matches dense rebuild and repair" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Amb_sim.Rng.create (6000 + seed) in
      let n = 10 + Amb_sim.Rng.int rng 60 in
      let topo = Topology.random rng ~nodes:n ~width_m:300.0 ~height_m:300.0 in
      let link = default_link () in
      let router = Routing.make ~dense_threshold:0 ~topology:topo ~link ~packet:Packet.sensor_report () in
      let alive = Array.make n true in
      let alive_fn i = alive.(i) in
      let weight i j = Routing.link_energy_j router i j in
      let sink = 0 in
      let dense = Route_tree.create ~n ~sink () in
      let csr = Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink () in
      Route_tree.rebuild dense ~weight ~alive:alive_fn;
      Route_tree.rebuild csr ~weight ~alive:alive_fn;
      let agree () =
        let ok = ref true in
        for i = 0 to n - 1 do
          if
            Route_tree.parent dense i <> Route_tree.parent csr i
            || Route_tree.cost dense i <> Route_tree.cost csr i
          then ok := false
        done;
        !ok
      in
      let after_rebuild = agree () in
      (* Kill a non-sink node and splice both trees. *)
      let dead = 1 + Amb_sim.Rng.int rng (n - 1) in
      alive.(dead) <- false;
      Route_tree.repair_death dense ~weight ~alive:alive_fn ~tie_free:true ~dead;
      Route_tree.repair_death csr ~weight ~alive:alive_fn ~tie_free:true ~dead;
      after_rebuild && agree ())

(* --- sharded fleet construction and scenario sweeps ------------------ *)

(* City layouts must be a pure function of the seed: the per-block RNG
   streams make leaf placement identical whatever the worker count.
   17000 nodes spans three placement blocks, so jobs=3 genuinely
   interleaves. *)
let test_city_jobs_independent () =
  let f1 = Amb_system.Fleet.city ~jobs:1 ~nodes:17_000 ~seed:11 () in
  let f3 = Amb_system.Fleet.city ~jobs:3 ~nodes:17_000 ~seed:11 () in
  let p1 = f1.Amb_system.Fleet.topology.Topology.positions in
  let p3 = f3.Amb_system.Fleet.topology.Topology.positions in
  Alcotest.(check int) "node count" (Array.length p1) (Array.length p3);
  Array.iteri
    (fun i (p : Topology.position) ->
      if p.Topology.x <> p3.(i).Topology.x || p.Topology.y <> p3.(i).Topology.y then
        Alcotest.failf "node %d moved across jobs" i)
    p1;
  (match Routing.adjacency f1.Amb_system.Fleet.router with
  | None -> Alcotest.fail "city fleet should build the sparse cache"
  | Some (offsets, _) ->
    Alcotest.(check bool) "has edges" true (offsets.(Array.length offsets - 1) > 0));
  let leaves t = Array.length (Amb_system.Fleet.tier_nodes t Amb_system.Fleet.Sensor_leaf) in
  Alcotest.(check int) "leaf count" (leaves f1) (leaves f3)

let test_tier_nodes_consistent () =
  let fleet = Amb_system.Fleet.make ~leaves:37 ~relays:5 ~seed:3 () in
  List.iter
    (fun tier ->
      let expected =
        List.filter
          (fun i -> Amb_system.Fleet.tier_of fleet i = tier)
          (List.init (Amb_system.Fleet.node_count fleet) Fun.id)
      in
      Alcotest.(check (list int))
        (Amb_system.Fleet.tier_name tier)
        expected
        (Amb_system.Fleet.nodes_of_tier fleet tier);
      Alcotest.(check (list int))
        (Amb_system.Fleet.tier_name tier ^ " (array)")
        expected
        (Array.to_list (Amb_system.Fleet.tier_nodes fleet tier)))
    Amb_system.Fleet.all_tiers

let test_run_many_jobs_independent () =
  let fleet = Amb_system.Fleet.make ~leaves:24 ~relays:4 ~seed:5 () in
  let cfg =
    Amb_system.Cosim.config ~fleet ~horizon:(Amb_units.Time_span.hours 2.0) ()
  in
  let seeds = [| 1; 2; 3; 4 |] in
  let seq = Amb_system.Cosim.run_many ~jobs:1 cfg ~seeds in
  let par = Amb_system.Cosim.run_many ~jobs:4 cfg ~seeds in
  Alcotest.(check int) "sweep size" (Array.length seq) (Array.length par);
  Array.iteri
    (fun k (a : Amb_system.Cosim.outcome) ->
      let b = par.(k) in
      Alcotest.(check int) "generated" a.Amb_system.Cosim.generated b.Amb_system.Cosim.generated;
      Alcotest.(check int) "delivered" a.Amb_system.Cosim.delivered b.Amb_system.Cosim.delivered;
      Alcotest.(check (float 0.0))
        "energy spent"
        (Amb_units.Energy.to_joules a.Amb_system.Cosim.energy_spent)
        (Amb_units.Energy.to_joules b.Amb_system.Cosim.energy_spent);
      Alcotest.(check (float 0.0))
        "availability" a.Amb_system.Cosim.availability b.Amb_system.Cosim.availability)
    seq

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_spatial_neighbors;
      prop_spatial_distances;
      prop_calendar_pop_order;
      prop_calendar_interleaved;
      prop_sparse_routing_equiv;
      prop_boundary_csr;
      prop_boundary_spatial;
      prop_route_tree_csr_equiv;
    ]
  @ [ Alcotest.test_case "connectivity grid tier equals brute force" `Quick
        test_connectivity_grid_tier;
      Alcotest.test_case "engine calendar tier equals heap tier" `Quick
        test_engine_calendar_equiv;
      Alcotest.test_case "sparse edge fill is jobs-independent" `Quick
        test_sparse_fill_jobs_independent;
      Alcotest.test_case "city layout is jobs-independent" `Quick test_city_jobs_independent;
      Alcotest.test_case "city CSR matches its golden digest" `Quick test_city_csr_golden;
      Alcotest.test_case "tier membership arrays are consistent" `Quick
        test_tier_nodes_consistent;
      Alcotest.test_case "run_many sweep is jobs-independent" `Quick
        test_run_many_jobs_independent;
    ]
