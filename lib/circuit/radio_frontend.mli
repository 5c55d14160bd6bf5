(** Radio transceiver front-end: TX = electronics + PA output / PA
    efficiency, fixed RX electronics, and a start-up (synthesizer
    settling) cost charged per wake-up — which rivals the payload energy
    at microWatt-node packet sizes (experiment E8). *)

open Amb_units

type t = {
  name : string;
  carrier_hz : float;
  bitrate : Data_rate.t;
  p_tx_electronics : Power.t;  (** TX chain excluding the PA output stage *)
  pa_efficiency : float;  (** RF output power / PA DC power *)
  max_tx_dbm : float;
  p_rx : Power.t;
  p_sleep : Power.t;
  startup_time : Time_span.t;
  startup_power : Power.t;
  sensitivity_dbm : float;  (** at the nominal bitrate *)
  noise_figure_db : float;
  bandwidth_hz : float;
}

val make :
  name:string ->
  carrier_mhz:float ->
  bitrate_kbps:float ->
  p_tx_electronics_mw:float ->
  pa_efficiency:float ->
  max_tx_dbm:float ->
  p_rx_mw:float ->
  p_sleep_uw:float ->
  startup_us:float ->
  sensitivity_dbm:float ->
  noise_figure_db:float ->
  bandwidth_khz:float ->
  t
(** Raises [Invalid_argument] on PA efficiency outside (0,1]. *)

val low_power_uhf : t
(** TR1000/CC1000-class 868 MHz short-range FSK radio (uW node). *)

val personal_area : t
(** Bluetooth-class 2.4 GHz radio (mW node). *)

val wlan : t
(** 802.11b-class radio (W node). *)

val zigbee_class : t
(** 802.15.4-class 2.4 GHz radio. *)

val catalogue : t list

val backscatter_uhf : t
(** The A-IoT tag front end: envelope detector downlink (~100 nW RX),
    impedance-switching modulator uplink (~200 nW, no PA — [max_tx_dbm]
    is negative infinity; the reflected carrier is priced by
    [Amb_radio.Backscatter]).  Not part of {!catalogue}. *)

val rfid_reader : t
(** The W-node interrogator on the other end of the backscatter link:
    36 dBm EIRP carrier, self-jammer-limited -85 dBm receive chain.
    Not part of {!catalogue}. *)

val tx_power : t -> tx_dbm:float -> Power.t
(** Total DC power while transmitting at a given RF output level (clamped
    to the radio's maximum). *)

val energy_per_bit_tx : t -> tx_dbm:float -> Energy.t
val energy_per_bit_rx : t -> Energy.t

val startup_energy : t -> Energy.t
(** Energy of one sleep-to-active transition. *)

val transmit_energy : t -> tx_dbm:float -> bits:float -> include_startup:bool -> Energy.t

val burst_energy : t -> tx_dbm:float -> airtime:Time_span.t -> startup:Energy.t option -> Energy.t
(** Staged {!transmit_energy}: the burst over a precomputed [airtime] plus
    an optional precomputed start-up energy.  [transmit_energy] is
    defined by it, so both give the same bits. *)

val receive_energy : t -> bits:float -> include_startup:bool -> Energy.t

val effective_energy_per_bit : t -> tx_dbm:float -> bits:float -> Energy.t
(** TX energy per bit including the amortised start-up cost; diverges as
    [bits -> 0].  Raises [Invalid_argument] on non-positive [bits]. *)
