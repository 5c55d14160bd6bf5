(** Radio propagation models.

    Free-space (Friis) for line-of-sight links and log-distance for indoor
    ambient-intelligence environments, where exponents of 3-4 are
    typical. *)

let speed_of_light = 299_792_458.0

type model =
  | Free_space
  | Log_distance of { exponent : float; reference_m : float }
      (** Friis up to [reference_m], then 10*n*log10(d/d0) beyond *)

let free_space = Free_space

let log_distance ?(reference_m = 1.0) exponent =
  if exponent < 1.0 then invalid_arg "Path_loss.log_distance: exponent < 1";
  if reference_m <= 0.0 then invalid_arg "Path_loss.log_distance: non-positive reference";
  Log_distance { exponent; reference_m }

(** Typical indoor (through-wall) environment: n = 3.3. *)
let indoor = log_distance 3.3

(** Typical open office: n = 2.5. *)
let open_office = log_distance 2.5

(* Friis loss at [distance_m] given the carrier's wavelength. *)
let[@inline] friis_of_wavelength ~wavelength ~distance_m =
  if distance_m <= 0.0 then 0.0
  else 20.0 *. Float.log10 (4.0 *. Float.pi *. distance_m /. wavelength)

let friis_loss_db ~carrier_hz ~distance_m =
  friis_of_wavelength ~wavelength:(speed_of_light /. carrier_hz) ~distance_m

type staged = {
  model : model;
  wavelength : float;
  reference_loss : float;  (** Friis loss at [reference_m]; 0 for free space *)
}

(** [stage model ~carrier_hz] — the distance-independent part of
    {!loss_db}, computed once: the wavelength and the reference-distance
    Friis loss.  Raises [Invalid_argument] on a non-positive carrier. *)
let stage model ~carrier_hz =
  if carrier_hz <= 0.0 then invalid_arg "Path_loss.loss_db: non-positive carrier";
  let wavelength = speed_of_light /. carrier_hz in
  let reference_loss =
    match model with
    | Free_space -> 0.0
    | Log_distance { reference_m; _ } -> friis_of_wavelength ~wavelength ~distance_m:reference_m
  in
  { model; wavelength; reference_loss }

(** [staged_loss_db s ~distance_m] — {!loss_db} for the staged model and
    carrier: the same float operations in the same order. *)
let staged_loss_db s ~distance_m =
  if distance_m <= 0.0 then 0.0
  else
    match s.model with
    | Free_space -> friis_of_wavelength ~wavelength:s.wavelength ~distance_m
    | Log_distance { exponent; reference_m } ->
      if distance_m <= reference_m then friis_of_wavelength ~wavelength:s.wavelength ~distance_m
      else s.reference_loss +. (10.0 *. exponent *. Float.log10 (distance_m /. reference_m))

(** [loss_db model ~carrier_hz ~distance_m] — path loss in dB.  Distances
    at or below zero lose nothing; carrier must be positive. *)
let loss_db model ~carrier_hz ~distance_m = staged_loss_db (stage model ~carrier_hz) ~distance_m

(** [received_dbm model ~tx_dbm ~carrier_hz ~distance_m]. *)
let received_dbm model ~tx_dbm ~carrier_hz ~distance_m =
  tx_dbm -. loss_db model ~carrier_hz ~distance_m

(** [max_range model ~tx_dbm ~carrier_hz ~threshold_dbm] — the largest
    distance at which the received level stays above [threshold_dbm]
    (monotone bisection; 0 when even at contact the threshold fails). *)
let max_range model ~tx_dbm ~carrier_hz ~threshold_dbm =
  let ok d = received_dbm model ~tx_dbm ~carrier_hz ~distance_m:d >= threshold_dbm in
  if not (ok 1e-3) then 0.0
  else
    let rec bracket hi n = if n = 0 || not (ok hi) then hi else bracket (hi *. 2.0) (n - 1) in
    let hi = bracket 1.0 60 in
    if ok hi then hi
    else
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = 0.5 *. (lo +. hi) in
          if ok mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      bisect 1e-3 hi 60
