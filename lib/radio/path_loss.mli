(** Radio propagation: free-space (Friis) and log-distance models, the
    latter with indoor exponents of 2.5-4. *)

val speed_of_light : float

type model =
  | Free_space
  | Log_distance of { exponent : float; reference_m : float }
      (** Friis up to [reference_m], then 10*n*log10(d/d0) beyond *)

val free_space : model

val log_distance : ?reference_m:float -> float -> model
(** Raises [Invalid_argument] for exponents below 1 or non-positive
    reference distances. *)

val indoor : model
(** Through-wall indoor environment, n = 3.3. *)

val open_office : model
(** Open office, n = 2.5. *)

val friis_loss_db : carrier_hz:float -> distance_m:float -> float

val loss_db : model -> carrier_hz:float -> distance_m:float -> float
(** Path loss in dB; zero at or below zero distance; raises
    [Invalid_argument] on a non-positive carrier. *)

type staged
(** A model bound to a carrier, with its distance-independent terms
    (wavelength, reference-distance loss) computed once. *)

val stage : model -> carrier_hz:float -> staged
(** Raises [Invalid_argument] on a non-positive carrier. *)

val staged_loss_db : staged -> distance_m:float -> float
(** [staged_loss_db (stage m ~carrier_hz) ~distance_m] is bit-identical
    to [loss_db m ~carrier_hz ~distance_m], which is defined by it. *)

val received_dbm : model -> tx_dbm:float -> carrier_hz:float -> distance_m:float -> float

val max_range : model -> tx_dbm:float -> carrier_hz:float -> threshold_dbm:float -> float
(** Largest distance keeping the received level above a threshold
    (monotone bisection); 0 when even contact fails. *)
