(** Link-budget analysis tying the radio front-end to the channel.

    Answers the questions that size the communication electronics of each
    node class: how far does a given TX level reach, what TX level does a
    given distance require, and how much energy does a delivered bit cost
    at that distance. *)

open Amb_units
open Amb_circuit

type t = {
  radio : Radio_frontend.t;
  channel : Path_loss.model;
  fade_margin_db : float;  (** safety margin on top of sensitivity *)
}

let make ?(fade_margin_db = 10.0) ~radio ~channel () =
  if fade_margin_db < 0.0 then invalid_arg "Link_budget.make: negative margin";
  { radio; channel; fade_margin_db }

(** [noise_floor_dbm link] — receiver noise floor. *)
let noise_floor_dbm link =
  Decibel.noise_floor_dbm ~bandwidth_hz:link.radio.Radio_frontend.bandwidth_hz
    ~noise_figure_db:link.radio.Radio_frontend.noise_figure_db

(** [received_dbm link ~tx_dbm ~distance_m]. *)
let received_dbm link ~tx_dbm ~distance_m =
  Path_loss.received_dbm link.channel ~tx_dbm
    ~carrier_hz:link.radio.Radio_frontend.carrier_hz ~distance_m

(** [snr_db link ~tx_dbm ~distance_m] — SNR at the detector. *)
let snr_db link ~tx_dbm ~distance_m =
  received_dbm link ~tx_dbm ~distance_m -. noise_floor_dbm link

(** [closes link ~tx_dbm ~distance_m] — does the link close with margin? *)
let closes link ~tx_dbm ~distance_m =
  received_dbm link ~tx_dbm ~distance_m
  >= link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db

(** [max_range link ~tx_dbm] — metres. *)
let max_range link ~tx_dbm =
  Path_loss.max_range link.channel ~tx_dbm ~carrier_hz:link.radio.Radio_frontend.carrier_hz
    ~threshold_dbm:(link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db)

type staged = {
  link : t;
  loss : Path_loss.staged;
  threshold_dbm : float;  (** sensitivity plus fade margin *)
}

(** [stage link] — the distance-independent terms of {!required_tx_dbm}
    (staged path loss, sensitivity plus margin), computed once. *)
let stage link =
  { link;
    loss = Path_loss.stage link.channel ~carrier_hz:link.radio.Radio_frontend.carrier_hz;
    threshold_dbm = link.radio.Radio_frontend.sensitivity_dbm +. link.fade_margin_db }

(** [staged_required_tx_dbm s ~distance_m] — {!required_tx_dbm} for the
    staged link, with the same float operations in the same order. *)
let staged_required_tx_dbm s ~distance_m =
  let needed = s.threshold_dbm +. Path_loss.staged_loss_db s.loss ~distance_m in
  if needed > s.link.radio.Radio_frontend.max_tx_dbm then None else Some needed

(** [required_tx_dbm link ~distance_m] — the minimum TX level closing the
    link at [distance_m]; [None] when even the radio's maximum does not
    reach. *)
let required_tx_dbm link ~distance_m = staged_required_tx_dbm (stage link) ~distance_m

(** [energy_per_delivered_bit link ~distance_m ~packet_bits] — TX energy
    per bit at the minimum closing TX level, including amortised start-up;
    [None] when the link cannot close.  The E8 curve. *)
let energy_per_delivered_bit link ~distance_m ~packet_bits =
  match required_tx_dbm link ~distance_m with
  | None -> None
  | Some tx_dbm ->
    Some (Radio_frontend.effective_energy_per_bit link.radio ~tx_dbm ~bits:packet_bits)

(** [tx_power_at link ~distance_m] — DC power while transmitting at the
    minimum closing level; [None] when out of reach. *)
let tx_power_at link ~distance_m =
  match required_tx_dbm link ~distance_m with
  | None -> None
  | Some tx_dbm -> Some (Radio_frontend.tx_power link.radio ~tx_dbm)
