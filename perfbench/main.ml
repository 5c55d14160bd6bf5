(* The repo benchmark.

     perfbench/main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     perfbench/main.exe --workload <name> --seed <n> --print-reference

   Runs one workload (workload.ml) at jobs=1 on one domain, checks every
   output against the pinned references (check.ml), and prints as its
   last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 they are the per-layer ones (probes.ml) plus the tracing
   overhead.  Earlier stdout lines carry the host block and the first
   output mismatch, if any.  --print-reference prints the reference
   lines of one workload and seed instead of measuring. *)

module Cosim = Amb_system.Cosim
module Fleet = Amb_system.Fleet
module Routing = Amb_net.Routing
open Perfbench
open Probes

let die code fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit code) fmt

(* ---- result accounting ----------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let first_mismatch = ref None

let record (v : Check.verdict) =
  attempted := !attempted + v.Check.checked;
  failed := !failed + v.Check.failed;
  if !first_mismatch = None then first_mismatch := v.Check.first

let check_fields ~entries ~key got =
  record (Check.compare ~label:key ~reference:(Check.lookup entries key) ~got)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result metrics =
  (match !first_mismatch with
  | Some m -> Printf.printf "{\"mismatch\": %S}\n" m
  | None -> ());
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
             m.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed body

let peak_heap_mb () =
  Float.of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. Float.of_int (Sys.word_size / 8)
  /. (1024.0 *. 1024.0)

(* Repeat [f] until [seconds] have passed, at least once; results in
   reverse run order, with the peak heap after the first repeat.  Later
   repeats can only fragment the heap further, and how many fit in
   [seconds] depends on the host's speed. *)
let repeat ~seconds f =
  let start = clock () in
  let first = f () in
  let peak = peak_heap_mb () in
  let rec loop acc = if clock () -. start >= seconds then acc else loop (f () :: acc) in
  (loop [ first ], peak)

(* The fastest of the repeats.  Every repeat does the same deterministic
   work, so the spread between them is mostly the host's: on a shared
   host, co-tenants' memory traffic slows memory-bound code up to 2x in
   spells of 10 s to a few minutes.  That moves the median of a 30 s run
   by a quarter from run to run, and its builds come in two clusters a
   third apart; the fastest of the repeats spread over the whole run
   moves far less. *)
let fastest xs = List.fold_left Float.min Float.infinity xs

(* The set-up and timed phase of every repeat, in run order. *)
let print_runs ~setup_s ~run_s =
  let list xs = String.concat ", " (List.rev_map json_number xs) in
  Printf.printf "{\"setup_s\": [%s], \"run_s\": [%s]}\n" (list setup_s) (list run_s)

(* The per-layer result, with the tracing overhead: the traced repeat's
   timed phase minus the untraced one's. *)
let print_traced ~plain_s ~traced_s metrics =
  print_result
    (metrics @ [ { name = "trace.overhead_s"; unit = "s"; value = traced_s -. plain_s } ])

(* ---- shared pieces ----------------------------------------------------- *)

let gc_metrics (before : Gc.stat) (after : Gc.stat) =
  [
    {
      name = "gc.minor_words";
      unit = "words";
      value = after.Gc.minor_words -. before.Gc.minor_words;
    };
    {
      name = "gc.major_collections";
      unit = "count";
      value = Float.of_int (after.Gc.major_collections - before.Gc.major_collections);
    };
    { name = "gc.top_heap_words"; unit = "words"; value = Float.of_int after.Gc.top_heap_words };
  ]

(* One set-up: a fleet built after a full major collection, with the
   build's wall time and stage timings. *)
let build_once build =
  Gc.full_major ();
  let timing = Fleet.build_timing ~clock in
  let fleet, dt = time (fun () -> build timing) in
  (fleet, (dt, timing))

(* Build [times] times, keeping the last fleet and every build's
   timings. *)
let set_up ~times build =
  let builds = List.init (times - 1) (fun _ -> snd (build_once build)) in
  let fleet, last = build_once build in
  (fleet, builds @ [ last ])

(* The end-to-end result of the untraced repeats, each a set-up and a
   timed phase: [(setup_s, run_s, work)] in reverse run order.  [work]
   is the same in every repeat, which checked it against one
   reference. *)
let print_end_to_end ~peak_mb repeats =
  let setup = List.map (fun (s, _, _) -> s) repeats in
  let runs = List.map (fun (_, r, _) -> r) repeats in
  print_runs ~setup_s:setup ~run_s:runs;
  let run_s = fastest runs and _, _, work = List.hd repeats in
  print_result
    [
      { name = "setup_s"; unit = "s"; value = fastest setup };
      { name = "run_s"; unit = "s"; value = run_s };
      { name = "events_per_s"; unit = "1/s"; value = work /. run_s };
      { name = "peak_heap_mb"; unit = "MiB"; value = peak_mb };
    ]

let fleet_metrics builds =
  let med f = median (List.map (fun (_, t) -> f t) builds) in
  [
    { name = "fleet.layout_s"; unit = "s"; value = med (fun t -> t.Fleet.layout_s) };
    { name = "fleet.topology_s"; unit = "s"; value = med (fun t -> t.Fleet.topology_s) };
    { name = "fleet.csr_s"; unit = "s"; value = med (fun t -> t.Fleet.csr_s) };
  ]

(* The Cosim run of a traced pass, with its phase split, simulated
   counts and the benchmark's own hop count. *)
let traced_cosim fleet ~router ~cfg ~faults ~seeds ~horizon_s =
  let phase = Cosim.phase_times ~clock in
  let gc0 = Gc.quick_stat () in
  let outcome, run_s =
    time (fun () -> Cosim.run_with_router ~phase ~router cfg ~seed:seeds.Workload.phases)
  in
  let gc1 = Gc.quick_stat () in
  let hc =
    count_hops fleet ~router:(Routing.with_private_memo fleet.Fleet.router) ~faults
      ~phase_seed:seeds.Workload.phases ~horizon_s
  in
  (* The hop count is only meaningful when its replay saw the reports
     Cosim saw. *)
  record
    (Check.compare ~label:"hop replay"
       ~reference:
         [
           ("generated", string_of_int outcome.Cosim.generated);
           ("delivered", string_of_int outcome.Cosim.delivered);
         ]
       ~got:
         [
           ("generated", string_of_int hc.generated);
           ("delivered", string_of_int hc.delivered);
         ]);
  let fwd = phase.Cosim.forward_s and acc = phase.Cosim.account_s and reb = phase.Cosim.rebuild_s in
  let metrics =
    [
      { name = "cosim.run_s"; unit = "s"; value = run_s };
      { name = "cosim.forward_s"; unit = "s"; value = fwd };
      { name = "cosim.account_s"; unit = "s"; value = acc };
      { name = "cosim.rebuild_s"; unit = "s"; value = reb };
      { name = "cosim.other_s"; unit = "s"; value = run_s -. fwd -. acc -. reb };
      { name = "cosim.hops"; unit = "count"; value = Float.of_int hc.hops };
      {
        name = "cosim.forward_ns_per_hop";
        unit = "ns";
        value = fwd *. 1e9 /. Float.of_int (Stdlib.max 1 hc.hops);
      };
      { name = "cosim.events"; unit = "count"; value = Float.of_int outcome.Cosim.events };
      {
        name = "cosim.deaths";
        unit = "count";
        value = Float.of_int (List.length outcome.Cosim.deaths);
      };
      { name = "cosim.tree_updates"; unit = "count"; value = Float.of_int outcome.Cosim.rebuilds };
    ]
  in
  (outcome, run_s, metrics, gc_metrics gc0 gc1)

(* The layer probes on one fleet, on the tree Cosim builds at t=0. *)
let layer_probes (fleet : Fleet.t) ~seed =
  let router = fleet.Fleet.router in
  let tree = new_tree fleet ~router in
  let link = Amb_system.Link_layer.create ~router ~mode:Amb_system.Link_layer.Cached () in
  Amb_net.Route_tree.rebuild tree
    ~weight:(Amb_system.Link_layer.weight_j link)
    ~alive:(fun _ -> true);
  let parent = parents fleet tree ~alive:(fun _ -> true) in
  let streams = Array.length (Fleet.tier_nodes fleet Fleet.Sensor_leaf) in
  List.concat
    [
      engine_replay ~streams ~period_s:Workload.report_period_s ~seed;
      ledger fleet ~parent;
      link_layer fleet ~router ~parent ~seed;
      route_tree fleet ~router ~seed;
      routing fleet;
      spatial fleet;
      rng ~seed;
    ]

(* ---- city workloads ------------------------------------------------------ *)

let preflight (w : Workload.t) c =
  let need = Workload.estimated_peak_bytes c /. (1024.0 *. 1024.0) in
  let avail = Host.meminfo_mib "MemAvailable" in
  if Float.is_finite avail && need > avail then
    die 3 "%s needs about %.0f MiB of heap but only %.0f MiB is available; not starting"
      w.Workload.name need avail

let run_city (w : Workload.t) (c : Workload.city) ~seed ~seconds ~trace =
  preflight w c;
  let seeds = Workload.seeds_of seed in
  let entries = Check.load (Check.reference_path w.Workload.name) in
  let key = Printf.sprintf "%s/%d" w.Workload.name (Workload.slot seed) in
  let build timing = Workload.build_city ~timing c ~seeds in
  (* The fault plan is drawn from the fleet.  Fades write through the
     router's distance memo, so each run gets a fresh one and no run
     starts warmer than another. *)
  let scenario fleet =
    let faults = Workload.fault_plan c fleet ~seed:seeds.Workload.faults in
    let router () =
      if faults = [] then fleet.Fleet.router else Routing.with_private_memo fleet.Fleet.router
    in
    (faults, Workload.cosim_config c fleet ~faults, router)
  in
  let plain fleet =
    let _, cfg, router = scenario fleet in
    Gc.full_major ();
    let outcome, dt =
      time (fun () -> Cosim.run_with_router ~router:(router ()) cfg ~seed:seeds.Workload.phases)
    in
    check_fields ~entries ~key (Check.outcome_fields outcome);
    (dt, outcome.Cosim.events)
  in
  if not trace then begin
    let repeats, peak_mb =
      repeat ~seconds (fun () ->
          let fleet, (setup_s, _) = build_once build in
          let run_s, events = plain fleet in
          (setup_s, run_s, Float.of_int events))
    in
    print_end_to_end ~peak_mb repeats
  end
  else begin
    let fleet, builds = set_up ~times:(if c.Workload.nodes >= 100_000 then 5 else 9) build in
    let faults, cfg, router = scenario fleet in
    let plain_s, _ = plain fleet in
    Gc.full_major ();
    let outcome, traced_s, cosim, gc =
      traced_cosim fleet ~router:(router ()) ~cfg ~faults ~seeds ~horizon_s:c.Workload.horizon_s
    in
    check_fields ~entries ~key (Check.outcome_fields outcome);
    let layers = layer_probes fleet ~seed:seeds.Workload.faults in
    let families, results = experiments () in
    let suite = Workload.legacy_suite.Workload.name in
    check_fields ~entries:(Check.load (Check.reference_path suite)) ~key:suite
      (Check.suite_fields results);
    print_traced ~plain_s ~traced_s (cosim @ layers @ fleet_metrics builds @ families @ gc)
  end

(* ---- legacy suite ---------------------------------------------------------- *)

(* The legacy-scale fleet: the largest city whose routing cache is still
   the dense n×n grid the legacy builders use (Routing's 1024-node
   threshold), whose event population stays on the binary heap, and
   which is just large enough for Cosim's struct-of-arrays path, so the
   phase split exists.  Its build is the suite workload's set-up; the
   traced run probes the layers on it. *)
let legacy_nodes = 1024

let legacy_horizon_s = 3600.0

let run_suite (w : Workload.t) ~seed ~seconds ~trace =
  let seeds = Workload.seeds_of seed in
  let entries = Check.load (Check.reference_path w.Workload.name) in
  let key = w.Workload.name in
  let build timing =
    Fleet.city ~leaf:(Workload.leaf ()) ~timing ~jobs:1 ~nodes:legacy_nodes
      ~seed:seeds.Workload.layout ()
  in
  let plain () =
    Gc.full_major ();
    let results, dt = time (fun () -> Amb_core.Experiments.run_all ~jobs:1 ()) in
    check_fields ~entries ~key (Check.suite_fields results);
    dt
  in
  if not trace then begin
    let builders = Float.of_int (List.length Amb_core.Experiments.all) in
    let repeats, peak_mb =
      repeat ~seconds (fun () ->
          let _, (setup_s, _) = build_once build in
          (setup_s, plain (), builders))
    in
    print_end_to_end ~peak_mb repeats
  end
  else begin
    let fleet, builds = set_up ~times:31 build in
    let plain_s = plain () in
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let (families, results), traced_s = time experiments in
    let gc = gc_metrics gc0 (Gc.quick_stat ()) in
    check_fields ~entries ~key (Check.suite_fields results);
    let cfg =
      Amb_system.Cosim.config ~fleet ~horizon:(Amb_units.Time_span.seconds legacy_horizon_s) ()
    in
    let _, _, cosim, _ =
      traced_cosim fleet ~router:fleet.Fleet.router ~cfg ~faults:[] ~seeds
        ~horizon_s:legacy_horizon_s
    in
    let layers = layer_probes fleet ~seed:seeds.Workload.faults in
    print_traced ~plain_s ~traced_s (cosim @ layers @ fleet_metrics builds @ families @ gc)
  end

(* ---- references ------------------------------------------------------------ *)

let print_reference (w : Workload.t) ~seed =
  match w.Workload.kind with
  | Workload.Suite ->
    print_string
      (Check.render w.Workload.name
         (Check.suite_fields (Amb_core.Experiments.run_all ~jobs:1 ())))
  | Workload.City c ->
    let seeds = Workload.seeds_of seed in
    let fleet = Workload.build_city c ~seeds in
    let faults = Workload.fault_plan c fleet ~seed:seeds.Workload.faults in
    let outcome =
      Cosim.run_with_router
        ~router:(Routing.with_private_memo fleet.Fleet.router)
        (Workload.cosim_config c fleet ~faults) ~seed:seeds.Workload.phases
    in
    print_string
      (Check.render
         (Printf.sprintf "%s/%d" w.Workload.name (Workload.slot seed))
         (Check.outcome_fields outcome))

(* ---- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let reference = ref false in
  let int_arg name r s =
    match int_of_string_opt s with
    | Some v -> r := Some v
    | None -> die 2 "%s wants an integer, got %S" name s
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (int_arg "--seed" seed), "N input seed");
      ("--seconds", Arg.String (int_arg "--seconds" seconds), "S how long to measure");
      ( "--trace",
        Arg.String (int_arg "--trace" trace),
        "0|1 per-layer metrics instead of end-to-end" );
      ("--print-reference", Arg.Set reference, " print the reference lines instead of measuring");
    ]
  in
  Arg.parse spec (fun a -> die 2 "unexpected argument %S" a) "perfbench/main.exe [options]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      die 2 "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  let seed = match !seed with Some s -> s | None -> Workload.default_seed in
  if !reference then print_reference w ~seed
  else begin
    let seconds =
      match !seconds with
      | Some s when s >= 1 -> Float.of_int s
      | _ -> die 2 "--seconds wants a positive integer"
    in
    let trace =
      match !trace with Some 0 -> false | Some 1 -> true | _ -> die 2 "--trace wants 0 or 1"
    in
    Printf.printf "{\"workload\": %S, \"host\": %s}\n%!" w.Workload.name
      (Host.json ~seed ~slot:(Workload.slot seed) ~jobs:1);
    match w.Workload.kind with
    | Workload.City c -> run_city w c ~seed ~seconds ~trace
    | Workload.Suite -> run_suite w ~seed ~seconds ~trace
  end
