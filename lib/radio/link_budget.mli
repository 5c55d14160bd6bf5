(** Link-budget analysis tying the radio front-end to the channel: how
    far a TX level reaches, what level a distance requires, and what a
    delivered bit costs there. *)

open Amb_circuit

type t = {
  radio : Radio_frontend.t;
  channel : Path_loss.model;
  fade_margin_db : float;  (** safety margin on top of sensitivity *)
}

val make : ?fade_margin_db:float -> radio:Radio_frontend.t -> channel:Path_loss.model -> unit -> t
(** Default margin 10 dB; raises [Invalid_argument] on negative margins. *)

val noise_floor_dbm : t -> float
val received_dbm : t -> tx_dbm:float -> distance_m:float -> float
val snr_db : t -> tx_dbm:float -> distance_m:float -> float

val closes : t -> tx_dbm:float -> distance_m:float -> bool
(** Does the link close with margin? *)

val max_range : t -> tx_dbm:float -> float

val required_tx_dbm : t -> distance_m:float -> float option
(** Minimum TX level closing the link; [None] beyond the radio's
    maximum. *)

type staged
(** A link with its distance-independent terms (staged path loss,
    sensitivity plus fade margin) computed once. *)

val stage : t -> staged

val staged_required_tx_dbm : staged -> distance_m:float -> float option
(** [staged_required_tx_dbm (stage link) ~distance_m] is bit-identical to
    [required_tx_dbm link ~distance_m], which is defined by it. *)

val energy_per_delivered_bit : t -> distance_m:float -> packet_bits:float -> Amb_units.Energy.t option
(** TX energy per bit at the minimum closing level, including amortised
    start-up (the E8 curve); [None] when the link cannot close. *)

val tx_power_at : t -> distance_m:float -> Amb_units.Power.t option
(** DC power while transmitting at the minimum closing level. *)
