(* Property tests for the incremental route repair (Amb_net.Route_tree)
   against the historic Graph/Dijkstra rebuild, plus the engine
   allocation budget.

   The oracle is the exact pipeline the simulators ran before the fast
   path: materialise a Graph over the alive pairs (ascending source,
   ascending destination insertion order) with the policy weights and
   run Graph.dijkstra from the sink.  After every fault — node death or
   link fade — the repaired tree must agree with a from-scratch oracle
   on parents and hop costs, for all three routing policies, both over
   the dense all-pairs scan and over a CSR adjacency (where a repair
   walks the subtree from its root).  Every repair must also report as
   touched exactly the subtree whose parent chains ran through its
   root. *)

open Amb_circuit
open Amb_radio
open Amb_net

(* --- oracle ---------------------------------------------------------- *)

let oracle ~n ~sink ~weight ~alive =
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && alive i && alive j then begin
        let w = weight i j in
        if not (Float.is_nan w) then Graph.add_edge g ~src:i ~dst:j ~weight:w
      end
    done
  done;
  Graph.dijkstra g ~src:sink

let check_against_oracle ~ctx ~n ~sink ~weight ~alive tree =
  let dist, prev = oracle ~n ~sink ~weight ~alive in
  for i = 0 to n - 1 do
    if alive i then begin
      Alcotest.(check int)
        (Printf.sprintf "%s: parent of %d" ctx i)
        prev.(i) (Route_tree.parent tree i);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: cost of %d" ctx i)
        dist.(i) (Route_tree.cost tree i)
    end
  done

(* The subtree a repair rooted at [root] must detach, from the parents
   before the repair: every node whose parent chain passes through
   [root] — the O(n) partition the dense path computes. *)
let expected_subtree ~n ~prev ~root =
  List.filter
    (fun v ->
      let rec up u steps = u = root || (u >= 0 && steps < n && up prev.(u) (steps + 1)) in
      up v 0)
    (List.init n Fun.id)

let touched_nodes tree =
  let acc = ref [] in
  Route_tree.iter_touched tree (fun v -> acc := v :: !acc);
  List.rev !acc

(* After a repair: a tie-free repair reports exactly the detached
   subtree (ascending), a full-rebuild fallback reports every node. *)
let check_touched ~ctx ~tie_free ~expected tree =
  if tie_free then begin
    Alcotest.(check bool) (ctx ^ ": touched is a subtree") false (Route_tree.touched_all tree);
    Alcotest.(check (list int)) (ctx ^ ": touched set") expected (touched_nodes tree)
  end
  else Alcotest.(check bool) (ctx ^ ": fallback touches all") true (Route_tree.touched_all tree)

(* --- random fault sequences ------------------------------------------ *)

(* Policy weights in the exact shape the simulators use: energy costs
   from the routing cache, with a per-pair fade multiplier (>= 1, only
   ever raised) and a static residual vector for Max_lifetime, so all
   energy-valued policies stay tie-free under random positions. *)
let make_weight ~policy ~router ~fade ~residual =
  let base i j = fade.(i).(j) *. Routing.link_energy_j router i j in
  match policy with
  | Routing.Min_hop -> fun i j -> if Float.is_nan (base i j) then Float.nan else 1.0
  | Routing.Min_energy -> base
  | Routing.Max_lifetime ->
    fun i j ->
      let joules = base i j in
      if Float.is_nan joules then joules
      else if residual.(i) <= 0.0 then Float.max_float /. 1e6
      else joules /. residual.(i)

(* [csr] builds the routing cache as a CSR adjacency (whatever the node
   count) and hands it to the tree, so repairs take the subtree-walk
   path; otherwise the tree scans all pairs. *)
let run_trial ~csr ~policy ~trial =
  let rng = Amb_sim.Rng.create (1000 + trial) in
  let n = 8 + Amb_sim.Rng.int rng 33 in
  let topology = Topology.random rng ~nodes:n ~width_m:220.0 ~height_m:220.0 in
  let link =
    Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()
  in
  let router =
    Routing.make ?dense_threshold:(if csr then Some 0 else None) ~topology ~link
      ~packet:Packet.sensor_report ()
  in
  let fade = Array.init n (fun _ -> Array.make n 1.0) in
  let residual = Array.init n (fun _ -> 0.5 +. Amb_sim.Rng.float rng) in
  let alive = Array.make n true in
  let sink = 0 in
  let weight = make_weight ~policy ~router ~fade ~residual in
  let alive_fn i = alive.(i) in
  (* Only the energy-valued policies have tie-free weights; Min_hop's
     unit weights make the repair fall back to the full rebuild, which
     must still match the oracle. *)
  let tie_free = policy <> Routing.Min_hop in
  let tree = Route_tree.create ?csr:(Routing.adjacency router) ~n ~sink () in
  if csr then
    Alcotest.(check bool) "csr adjacency present" true (Routing.adjacency router <> None);
  Route_tree.rebuild tree ~weight ~alive:alive_fn;
  Alcotest.(check bool) "rebuild touches all" true (Route_tree.touched_all tree);
  check_against_oracle
    ~ctx:(Printf.sprintf "trial %d initial" trial)
    ~n ~sink ~weight ~alive:alive_fn tree;
  for event = 1 to 4 do
    let ctx = Printf.sprintf "trial %d event %d" trial event in
    if Amb_sim.Rng.float rng < 0.5 then begin
      (* Node death: pick any alive non-sink node. *)
      let candidates =
        List.filter (fun i -> i <> sink && alive.(i)) (List.init n Fun.id)
      in
      match candidates with
      | [] -> ()
      | _ ->
        let dead = List.nth candidates (Amb_sim.Rng.int rng (List.length candidates)) in
        let prev = Array.init n (Route_tree.parent tree) in
        alive.(dead) <- false;
        Route_tree.repair_death tree ~weight ~alive:alive_fn ~tie_free ~dead;
        check_touched ~ctx:(ctx ^ " death") ~tie_free
          ~expected:(expected_subtree ~n ~prev ~root:dead) tree;
        check_against_oracle ~ctx:(ctx ^ " death") ~n ~sink ~weight ~alive:alive_fn tree
    end
    else begin
      (* Link fade: raise one pair's cost (both directions), tree edge
         or not — the repair decides which case it is. *)
      let a = Amb_sim.Rng.int rng n in
      let b = (a + 1 + Amb_sim.Rng.int rng (n - 1)) mod n in
      let factor = 1.5 +. (3.5 *. Amb_sim.Rng.float rng) in
      let prev = Array.init n (Route_tree.parent tree) in
      fade.(a).(b) <- fade.(a).(b) *. factor;
      fade.(b).(a) <- fade.(b).(a) *. factor;
      Route_tree.repair_weight_increase tree ~weight ~alive:alive_fn ~tie_free ~a ~b;
      let expected =
        if prev.(a) = b then expected_subtree ~n ~prev ~root:a
        else if prev.(b) = a then expected_subtree ~n ~prev ~root:b
        else []
      in
      check_touched ~ctx:(ctx ^ " fade") ~tie_free ~expected tree;
      check_against_oracle ~ctx:(ctx ^ " fade") ~n ~sink ~weight ~alive:alive_fn tree
    end
  done

let trials_per_policy = 40

let test_repair_matches_rebuild ~csr policy () =
  for trial = 1 to trials_per_policy do
    run_trial ~csr ~policy ~trial
  done

(* The subtree walk finds a node's children in its own CSR row, which
   holds every child only if the adjacency is symmetric. *)
let test_city_csr_symmetric () =
  let fleet = Amb_system.Fleet.city ~nodes:3000 ~seed:7 () in
  match Routing.adjacency fleet.Amb_system.Fleet.router with
  | None -> Alcotest.fail "city fleet above the dense threshold has no CSR adjacency"
  | Some (offsets, neighbors) ->
    let row i = Array.to_list (Array.sub neighbors offsets.(i) (offsets.(i + 1) - offsets.(i))) in
    for i = 0 to Array.length offsets - 2 do
      List.iter
        (fun j ->
          if not (List.mem i (row j)) then
            Alcotest.failf "csr not symmetric: %d lists %d but not the reverse" i j)
        (row i)
    done

(* Directed check of the no-op case: worsening an edge the tree does not
   use must leave parents untouched (and stay oracle-exact). *)
let test_non_tree_fade_noop () =
  let trial = 4242 in
  let rng = Amb_sim.Rng.create trial in
  let n = 20 in
  let topology = Topology.random rng ~nodes:n ~width_m:200.0 ~height_m:200.0 in
  let link =
    Link_budget.make ~radio:Radio_frontend.low_power_uhf ~channel:Path_loss.indoor ()
  in
  let router = Routing.make ~topology ~link ~packet:Packet.sensor_report () in
  let fade = Array.init n (fun _ -> Array.make n 1.0) in
  let residual = Array.make n 1.0 in
  let alive = Array.make n true in
  let sink = 0 in
  let weight = make_weight ~policy:Routing.Min_energy ~router ~fade ~residual in
  let alive_fn i = alive.(i) in
  let tree = Route_tree.create ~n ~sink () in
  Route_tree.rebuild tree ~weight ~alive:alive_fn;
  (* Find a linked pair that is not a tree edge in either direction. *)
  let non_tree = ref None in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if
        !non_tree = None && a <> b
        && (not (Float.is_nan (weight a b)))
        && Route_tree.parent tree a <> b
        && Route_tree.parent tree b <> a
      then non_tree := Some (a, b)
    done
  done;
  match !non_tree with
  | None -> ()  (* degenerate topology; nothing to check *)
  | Some (a, b) ->
    let before = Array.init n (Route_tree.parent tree) in
    fade.(a).(b) <- 10.0;
    fade.(b).(a) <- 10.0;
    Route_tree.repair_weight_increase tree ~weight ~alive:alive_fn ~tie_free:true ~a ~b;
    for i = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "parent of %d unchanged" i)
        before.(i) (Route_tree.parent tree i)
    done;
    check_against_oracle ~ctx:"non-tree fade" ~n ~sink ~weight ~alive:alive_fn tree

(* --- engine allocation budget ---------------------------------------- *)

(* The fast-path contract: once the queue is warm, firing periodic
   events allocates nothing on the minor heap.  100k events with even
   one boxed float per event would show up as >= 200k words. *)
let test_engine_allocation_free () =
  let open Amb_sim in
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.every_s engine ~period_s:1.0 ~until_s:100_001.0 (fun _ ->
      incr count;
      !count < 100_000);
  let before = Gc.minor_words () in
  let _ = Engine.run_s engine in
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "inner loop allocation (%.0f words for %d events)" allocated !count)
    true
    (allocated < 5_000.0);
  Alcotest.(check int) "events fired" 100_000 !count

(* The stochastic-core counterpart of the engine budget above: 1M
   uniform draws.  Through the batch kernel the whole run must stay
   within a few hundred minor words (closure setup only).  The scalar
   path pays exactly the cross-module float-return boxing (2 words per
   draw on the non-flambda compiler) and nothing else — the native-int
   splitmix64 core allocates no Int64 temporaries. *)
let test_rng_allocation_budget () =
  let open Amb_sim in
  let draws = 1_000_000 in
  let block = 4096 in
  let rng = Rng.create 2024 in
  let buf = Float.Array.create block in
  (* Warm up so the closure and buffer are allocated before measuring. *)
  Rng.fill_floats rng buf;
  let before = Gc.minor_words () in
  let remaining = ref draws in
  while !remaining > 0 do
    let len = Stdlib.min block !remaining in
    Rng.fill_floats rng ~pos:0 ~len buf;
    remaining := !remaining - len
  done;
  let batch_words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "batch kernel (%.0f words for %d draws)" batch_words draws)
    true (batch_words < 10_000.0);
  let sink = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := !sink +. Rng.float rng
  done;
  let scalar_words = Gc.minor_words () -. before in
  ignore !sink;
  (* Boxed return only: anything above ~2 words/draw means the RNG core
     itself is allocating again. *)
  Alcotest.(check bool)
    (Printf.sprintf "scalar path (%.0f words for %d draws)" scalar_words draws)
    true
    (scalar_words < 2.5e6)

let suite =
  [ Alcotest.test_case "repair vs rebuild oracle: min-hop" `Slow
      (test_repair_matches_rebuild ~csr:false Routing.Min_hop);
    Alcotest.test_case "repair vs rebuild oracle: min-energy" `Slow
      (test_repair_matches_rebuild ~csr:false Routing.Min_energy);
    Alcotest.test_case "repair vs rebuild oracle: max-lifetime" `Slow
      (test_repair_matches_rebuild ~csr:false Routing.Max_lifetime);
    Alcotest.test_case "csr repair vs rebuild oracle: min-hop" `Slow
      (test_repair_matches_rebuild ~csr:true Routing.Min_hop);
    Alcotest.test_case "csr repair vs rebuild oracle: min-energy" `Slow
      (test_repair_matches_rebuild ~csr:true Routing.Min_energy);
    Alcotest.test_case "csr repair vs rebuild oracle: max-lifetime" `Slow
      (test_repair_matches_rebuild ~csr:true Routing.Max_lifetime);
    Alcotest.test_case "city csr adjacency is symmetric" `Quick test_city_csr_symmetric;
    Alcotest.test_case "non-tree fade is a parent-preserving no-op" `Quick
      test_non_tree_fade_noop;
    Alcotest.test_case "engine inner loop is allocation-free" `Quick
      test_engine_allocation_free;
    Alcotest.test_case "rng draw budget: 1M draws" `Quick test_rng_allocation_budget;
  ]
