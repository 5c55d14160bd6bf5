(* The host block every result carries, read from /proc and from the
   checkout itself (no subprocesses). *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s

let read_lines path =
  (* /proc files report length 0, so read them line by line. *)
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | l -> loop (l :: acc)
    in
    loop []

(* A /proc/meminfo field in MiB, or NaN when unavailable. *)
let meminfo_mib field =
  let prefix = field ^ ":" in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (read_lines "/proc/meminfo")
  with
  | None -> Float.nan
  | Some l -> (
    let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
    match Scanf.sscanf rest " %d kB" (fun kb -> kb) with
    | kb -> Float.of_int kb /. 1024.0
    | exception _ -> Float.nan)

(* The commit of the checkout when it is a git work tree: HEAD, then the
   ref it names, loose or packed; "unknown" otherwise. *)
let git_commit () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    let head = trim head in
    let prefix = "ref: " in
    if String.length head > 5 && String.sub head 0 5 = prefix then
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some sha -> trim sha
      | None -> (
        let packed =
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ sha; name ] when name = r -> Some sha
              | _ -> None)
            (read_lines ".git/packed-refs")
        in
        match packed with Some sha -> sha | None -> "unknown")
    else head)

let json ~seed ~slot ~jobs =
  let mib x = if Float.is_nan x then "null" else Printf.sprintf "%.0f" x in
  Printf.sprintf
    "{\"nproc\": %d, \"mem_total_mib\": %s, \"mem_available_mib\": %s, \"ocaml\": %S, \
     \"jobs\": %d, \"commit\": %S, \"seed\": %d, \"seed_slot\": %d}"
    (Domain.recommended_domain_count ())
    (mib (meminfo_mib "MemTotal"))
    (mib (meminfo_mib "MemAvailable"))
    Sys.ocaml_version jobs (git_commit ()) seed slot
