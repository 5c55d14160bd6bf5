(* Output checks against references pinned in perfbench/reference/.

   A city outcome is reduced to named fields, each rendered exactly:
   ints in decimal, floats as hex literals with every NaN rendered as
   "nan" (so equality is bitwise except that any NaN equals any NaN),
   and the death list and per-agent ledgers as MD5 digests of those
   renderings.  A suite pass is reduced to one digest per experiment
   (Report_io.digest).  Comparing two field lists names the first
   field that differs, with both values. *)

module Cosim = Amb_system.Cosim
module Node_agent = Amb_system.Node_agent

type fields = (string * string) list

let float_repr x = if Float.is_nan x then "nan" else Printf.sprintf "%h" x

let time_repr t = float_repr (Amb_units.Time_span.to_seconds t)
let energy_repr e = float_repr (Amb_units.Energy.to_joules e)

let agent_repr a =
  String.concat " "
    [
      string_of_int (Node_agent.id a);
      string_of_bool (Node_agent.alive a);
      float_repr (Node_agent.reserve_j a);
      float_repr (Node_agent.capacity_j a);
      float_repr (Node_agent.consumed_j a);
      float_repr (Node_agent.harvested_j a);
      float_repr (Node_agent.last_account_s a);
      float_repr (Node_agent.died_at_s a);
    ]

let digest_of lines =
  let b = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents b))

let outcome_fields (o : Cosim.outcome) : fields =
  [
    ("generated", string_of_int o.generated);
    ("delivered", string_of_int o.delivered);
    ("dropped", string_of_int o.dropped);
    ("delivery_ratio", float_repr o.delivery_ratio);
    ("first_death", match o.first_death with None -> "none" | Some t -> time_repr t);
    ("deaths", string_of_int (List.length o.deaths));
    ( "deaths_digest",
      digest_of (List.map (fun (i, t) -> string_of_int i ^ " " ^ time_repr t) o.deaths) );
    ("dead_at_end", string_of_int o.dead_at_end);
    ("energy_spent", energy_repr o.energy_spent);
    ("energy_harvested", energy_repr o.energy_harvested);
    ("availability", float_repr o.availability);
    ("mean_coverage", float_repr o.mean_coverage);
    ("rebuilds", string_of_int o.rebuilds);
    ("events", string_of_int o.events);
    ("agents", digest_of (Array.to_list (Array.map agent_repr o.agents)));
  ]

let suite_fields results : fields =
  List.map (fun (id, _, report) -> (id, Amb_core.Report_io.digest report)) results

type verdict = { checked : int; failed : int; first : string option }

(* Every reference field is checked; a field missing from [got] counts
   as a mismatch, as does an extra field in [got]. *)
let compare ~label ~(reference : fields) ~(got : fields) =
  let first = ref None and failed = ref 0 in
  let miss field want have =
    incr failed;
    if !first = None then
      first := Some (Printf.sprintf "%s: %s differs (reference %s, got %s)" label field want have)
  in
  List.iter
    (fun (field, want) ->
      match List.assoc_opt field got with
      | Some have when have = want -> ()
      | Some have -> miss field want have
      | None -> miss field want "<missing>")
    reference;
  List.iter
    (fun (field, have) ->
      if not (List.mem_assoc field reference) then miss field "<missing>" have)
    got;
  {
    checked = Stdlib.max (List.length reference) (List.length got);
    failed = !failed;
    first = !first;
  }

(* Reference files: one "<key> <field> <value>" line per field, where
   the key names the workload and seed slot ("city-steady/3") or the
   workload alone ("legacy-suite"). *)
let reference_path workload = Filename.concat "perfbench/reference" (workload ^ ".ref")

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ key; field; value ] -> loop ((key, (field, value)) :: acc)
        | _ -> loop acc)
    in
    loop []

let lookup entries key =
  List.filter_map (fun (k, fv) -> if k = key then Some fv else None) entries

let render key (fields : fields) =
  String.concat "" (List.map (fun (f, v) -> Printf.sprintf "%s %s %s\n" key f v) fields)
