(* Tests of the benchmark itself: names, the output check, references
   and the seed-driven input generators. *)

open Perfbench

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Every "name" value in BENCHMARK.json, in file order. *)
let benchmark_names () =
  let s = read "../BENCHMARK.json" in
  let re = Str.regexp "\"name\"[ \t\n]*:[ \t\n]*\"\\([^\"]*\\)\"" in
  let rec loop pos acc =
    match Str.search_forward re s pos with
    | exception Not_found -> List.rev acc
    | _ -> loop (Str.match_end ()) (Str.matched_group 1 s :: acc)
  in
  loop 0 []

let valid_name n = n <> "" && Str.string_match (Str.regexp "[A-Za-z0-9_.-]+$") n 0

let test_names () =
  let names = benchmark_names () in
  expect "BENCHMARK.json names metrics and workloads" (List.length names > 10);
  expect "every name matches [A-Za-z0-9_.-]+" (List.for_all valid_name names);
  expect "no name is used twice" (List.length (List.sort_uniq compare names) = List.length names);
  expect "every workload is declared in BENCHMARK.json"
    (List.for_all (fun w -> List.mem w.Workload.name names) Workload.all);
  expect "every workload name matches [A-Za-z0-9_.-]+"
    (List.for_all (fun w -> valid_name w.Workload.name) Workload.all)

let test_check () =
  let entries = Check.load "reference/city-steady.ref" in
  let key = Printf.sprintf "city-steady/%d" (Workload.slot Workload.default_seed) in
  let reference = Check.lookup entries key in
  expect "default-seed reference has every outcome field" (List.length reference = 15);
  let same = Check.compare ~label:key ~reference ~got:reference in
  expect "identical outputs pass" (same.Check.failed = 0 && same.Check.first = None);
  let perturbed =
    List.map (fun (f, v) -> if f = "energy_spent" then (f, v ^ "1") else (f, v)) reference
  in
  let v = Check.compare ~label:key ~reference:perturbed ~got:reference in
  expect "a perturbed reference fails" (v.Check.failed = 1);
  let names_both =
    match v.Check.first with
    | None -> false
    | Some msg ->
      let has sub =
        match Str.search_forward (Str.regexp_string sub) msg 0 with
        | _ -> true
        | exception Not_found -> false
      in
      has "energy_spent" && has (List.assoc "energy_spent" perturbed)
      && has (List.assoc "energy_spent" reference)
  in
  expect "the mismatch names the field and both values" names_both;
  let missing = Check.compare ~label:key ~reference ~got:(List.tl reference) in
  expect "a missing field fails" (missing.Check.failed = 1);
  let absent = Check.compare ~label:key ~reference:[] ~got:reference in
  expect "an absent reference fails" (absent.Check.failed > 0);
  expect "NaN equals NaN" (Check.float_repr Float.nan = Check.float_repr (-.Float.nan));
  expect "signed zeros differ" (Check.float_repr 0.0 <> Check.float_repr (-0.0))

let test_references () =
  List.iter
    (fun w ->
      let entries = Check.load (Printf.sprintf "reference/%s.ref" w.Workload.name) in
      match w.Workload.kind with
      | Workload.Suite ->
        expect "suite reference pins every builder"
          (List.length (Check.lookup entries w.Workload.name)
          = List.length Amb_core.Experiments.all)
      | Workload.City _ ->
        expect
          (Printf.sprintf "%s reference pins every seed slot" w.Workload.name)
          (List.for_all
             (fun slot ->
               let key = Printf.sprintf "%s/%d" w.Workload.name slot in
               List.length (Check.lookup entries key) = 15)
             (List.init Workload.slots Fun.id)))
    Workload.all

let test_seeds () =
  expect "seeds are a function of the seed" (Workload.seeds_of 7 = Workload.seeds_of 7);
  expect "seeds fold onto the slots" (Workload.seeds_of 3 = Workload.seeds_of (3 + Workload.slots));
  expect "distinct slots draw distinct inputs" (Workload.seeds_of 3 <> Workload.seeds_of 4);
  expect "negative seeds fold too" (Workload.slot (-1) = Workload.slots - 1);
  expect "default and held-out seeds use different slots"
    (Workload.slot Workload.default_seed <> Workload.slot Workload.held_out_seed)

let test_fault_plan () =
  let c =
    { Workload.nodes = 2000; horizon_s = 3600.0; leaf_crashes = 40; relay_crashes = 4; fades = 10 }
  in
  let seeds = Workload.seeds_of Workload.default_seed in
  let fleet = Workload.build_city c ~seeds in
  let plan seed = Workload.fault_plan c fleet ~seed in
  let a = plan seeds.Workload.faults and b = plan seeds.Workload.faults in
  expect "fault plan is identical across two calls with one seed" (a = b);
  expect "fault plan has every crash and fade" (List.length a = 54);
  expect "another seed draws another plan" (plan (seeds.Workload.faults + 1) <> a);
  let crashed =
    List.filter_map
      (function Amb_system.Fault_plan.Node_crash { node; _ } -> Some node | _ -> None)
      a
  in
  expect "crashed nodes are distinct" (List.length (List.sort_uniq compare crashed) = 44);
  expect "every fault lands inside the horizon"
    (List.for_all
       (function
         | Amb_system.Fault_plan.Node_crash { at; _ } | Amb_system.Fault_plan.Link_fade { at; _ } ->
           let s = Amb_units.Time_span.to_seconds at in
           s >= 0.0 && s < c.Workload.horizon_s
         | Amb_system.Fault_plan.Battery_scale _ -> false)
       a)

let () =
  test_names ();
  test_check ();
  test_references ();
  test_seeds ();
  test_fault_plan ();
  if !failures > 0 then begin
    Printf.printf "%d benchmark test(s) failed\n" !failures;
    exit 1
  end
