(* Property test for the incremental tree mirror (Amb_system.Tree_mirror).

   Cosim refreshes its parent entries, hop tariffs and connected-leaf
   count only over the subtree a repair touched.  The claim is that this
   equals a full pass after every update, bit for bit.  Here random
   fleets (leaves, relays, tags; dense scan or CSR adjacency; three link
   modes) take random sequences of leaf deaths, relay crashes, worsening
   fades and improving fades, driven the way Cosim drives them, and
   after every update the mirror is checked against an independent
   recomputation: the parent entry of every node, a fresh
   [Link_layer.refresh_hop_tariffs] over those entries, and a naive
   per-leaf walk to the sink. *)

open Amb_units
open Amb_system
open Amb_net

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_mirror ~ctx ~fleet ~tree ~link ~alive mirror =
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let expected =
    Array.init n (fun i ->
        if i = sink then -1
        else
          let p = Route_tree.parent tree i in
          if p < 0 || not (alive i) then -2 else p)
  in
  let parent = Tree_mirror.parent mirror in
  Array.iteri
    (fun i e ->
      if parent.(i) <> e then Alcotest.failf "%s: parent of %d is %d, want %d" ctx i parent.(i) e)
    expected;
  let tx_j = Array.make n Float.nan and hop_kind = Array.make n 0 in
  Link_layer.refresh_hop_tariffs link ~sink ~parent:expected ~tx_j ~hop_kind;
  let got_tx = Tree_mirror.hop_tx mirror and got_kind = Tree_mirror.hop_kind mirror in
  for i = 0 to n - 1 do
    if not (same_bits tx_j.(i) got_tx.(i)) then
      Alcotest.failf "%s: tariff of %d is %h, want %h" ctx i got_tx.(i) tx_j.(i);
    if hop_kind.(i) <> got_kind.(i) then
      Alcotest.failf "%s: hop kind of %d is %d, want %d" ctx i got_kind.(i) hop_kind.(i)
  done;
  let reaches leaf =
    let rec up u steps = u = sink || (u >= 0 && steps < n && up expected.(u) (steps + 1)) in
    up leaf 0
  in
  let connected =
    Array.fold_left
      (fun acc leaf -> if alive leaf && reaches leaf then acc + 1 else acc)
      0
      (Fleet.tier_nodes fleet Fleet.Sensor_leaf)
  in
  Alcotest.(check int) (ctx ^ ": connected leaves") connected (Tree_mirror.connected mirror)

let modes =
  [|
    Link_layer.Cached;
    Link_layer.Off;
    Link_layer.Mac
      (Amb_radio.Mac_duty_cycle.make ~radio:Amb_circuit.Radio_frontend.low_power_uhf
         ~t_wakeup:(Time_span.seconds 0.5) ~packet:Amb_radio.Packet.sensor_report ());
  |]

let trial seed =
  let rng = Amb_sim.Rng.create (7000 + seed) in
  let leaves = 20 + Amb_sim.Rng.int rng 40 in
  let relays = 2 + Amb_sim.Rng.int rng 4 in
  let tags = Amb_sim.Rng.int rng 8 in
  let fleet = Fleet.make ~leaves ~relays ~tags ~seed:(300 + seed) () in
  let csr = seed mod 2 = 0 in
  let fleet =
    if not csr then fleet
    else
      let r = fleet.Fleet.router in
      {
        fleet with
        Fleet.router =
          Routing.make ~dense_threshold:0 ~topology:fleet.Fleet.topology ~link:r.Routing.link
            ~packet:r.Routing.packet ();
      }
  in
  let n = Fleet.node_count fleet and sink = fleet.Fleet.sink in
  let link =
    Link_layer.create
      ?tag_link:
        (Option.map
           (fun bs ->
             ( bs,
               (fun i -> fleet.Fleet.tiers.(i) = Fleet.Tag),
               fun i -> fleet.Fleet.tiers.(i) = Fleet.Sink ))
           fleet.Fleet.tag_link)
      ~router:fleet.Fleet.router
      ~mode:modes.(seed mod Array.length modes)
      ()
  in
  let alive_arr = Array.make n true in
  let alive i = alive_arr.(i) in
  let weight = Link_layer.weight_j link in
  let tree = Route_tree.create ?csr:(Routing.adjacency fleet.Fleet.router) ~n ~sink () in
  let mirror = Tree_mirror.create ~fleet ~tree ~link ~alive ~priced:true in
  Route_tree.rebuild tree ~weight ~alive;
  Tree_mirror.sync mirror;
  check_mirror ~ctx:(Printf.sprintf "seed %d initial" seed) ~fleet ~tree ~link ~alive mirror;
  let pick p =
    match List.filter p (List.init n Fun.id) with
    | [] -> None
    | l -> Some (List.nth l (Amb_sim.Rng.int rng (List.length l)))
  in
  let kill node =
    alive_arr.(node) <- false;
    Route_tree.repair_death tree ~weight ~alive ~tie_free:true ~dead:node;
    Tree_mirror.sync mirror
  in
  let faded = ref [] in
  let fade a b db =
    (* Cosim's rule: only a fade that worsens both directions is
       repaired locally; anything else rebuilds. *)
    let worsened old_w new_w =
      if Float.is_nan new_w then true else (not (Float.is_nan old_w)) && new_w >= old_w
    in
    let before_ab = weight a b and before_ba = weight b a in
    Link_layer.set_fade link ~a ~b ~db;
    if worsened before_ab (weight a b) && worsened before_ba (weight b a) then
      Route_tree.repair_weight_increase tree ~weight ~alive ~tie_free:true ~a ~b
    else Route_tree.rebuild tree ~weight ~alive;
    faded := (a, b, db) :: !faded;
    Tree_mirror.sync ~fade:(a, b) mirror
  in
  for event = 1 to 14 do
    let ctx = Printf.sprintf "seed %d event %d" seed event in
    let tier i = fleet.Fleet.tiers.(i) in
    (match Amb_sim.Rng.int rng 5 with
    | 0 ->
      (* Battery death of a leaf or tag. *)
      Option.iter kill (pick (fun i -> i <> sink && alive i && tier i <> Fleet.Relay))
    | 1 ->
      (* Relay crash: the large subtrees. *)
      Option.iter kill (pick (fun i -> alive i && tier i = Fleet.Relay))
    | 2 | 3 -> (
      (* Worsening fade, on a tree edge when one exists. *)
      let db = 3.0 +. (25.0 *. Amb_sim.Rng.float rng) in
      match pick (fun i -> alive i && Route_tree.parent tree i >= 0) with
      | Some a when Amb_sim.Rng.float rng < 0.7 -> fade a (Route_tree.parent tree a) db
      | _ ->
        let a = Amb_sim.Rng.int rng n in
        let b = (a + 1 + Amb_sim.Rng.int rng (n - 1)) mod n in
        fade a b db)
    | _ -> (
      (* Improving fade: a smaller loss replaces an earlier one. *)
      match !faded with
      | [] -> ()
      | (a, b, db) :: _ -> fade a b (db *. Amb_sim.Rng.float rng)));
    check_mirror ~ctx ~fleet ~tree ~link ~alive mirror
  done;
  (* The sink dying orphans everything: the one repair that reports
     every node touched. *)
  kill sink;
  check_mirror ~ctx:(Printf.sprintf "seed %d sink death" seed) ~fleet ~tree ~link ~alive mirror

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental mirror equals a full recount and refresh" ~count:60
    QCheck.small_nat (fun seed ->
      trial seed;
      true)

let suite = [ QCheck_alcotest.to_alcotest prop_incremental_equals_full ]
