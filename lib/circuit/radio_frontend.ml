(** Radio transceiver front-end model.

    TX power = electronics + PA output / PA efficiency; RX power is fixed
    electronics.  Start-up (synthesizer settling) is charged per wake-up:
    at microWatt-node packet sizes the start-up energy rivals the payload
    energy, which is why experiment E8 shows energy/bit exploding for
    short packets. *)

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
  startup_power : Power.t;  (** power during synthesizer settling *)
  sensitivity_dbm : float;  (** at the nominal bitrate *)
  noise_figure_db : float;
  bandwidth_hz : float;
}

let make ~name ~carrier_mhz ~bitrate_kbps ~p_tx_electronics_mw ~pa_efficiency ~max_tx_dbm ~p_rx_mw
    ~p_sleep_uw ~startup_us ~sensitivity_dbm ~noise_figure_db ~bandwidth_khz =
  if pa_efficiency <= 0.0 || pa_efficiency > 1.0 then
    invalid_arg "Radio_frontend.make: PA efficiency outside (0,1]";
  let p_rx = Power.milliwatts p_rx_mw in
  {
    name;
    carrier_hz = carrier_mhz *. 1e6;
    bitrate = Data_rate.kilobits_per_second bitrate_kbps;
    p_tx_electronics = Power.milliwatts p_tx_electronics_mw;
    pa_efficiency;
    max_tx_dbm;
    p_rx;
    p_sleep = Power.microwatts p_sleep_uw;
    startup_time = Time_span.microseconds startup_us;
    startup_power = p_rx;
    sensitivity_dbm;
    noise_figure_db;
    bandwidth_hz = bandwidth_khz *. 1e3;
  }

(* Era-typical transceivers, one per device class. *)

let low_power_uhf =
  (* TR1000/CC1000-class 868 MHz short-range FSK radio for the uW node. *)
  make ~name:"868 MHz low-power FSK" ~carrier_mhz:868.0 ~bitrate_kbps:76.8
    ~p_tx_electronics_mw:12.0 ~pa_efficiency:0.30 ~max_tx_dbm:5.0 ~p_rx_mw:12.0 ~p_sleep_uw:1.0
    ~startup_us:250.0 ~sensitivity_dbm:(-104.0) ~noise_figure_db:9.0 ~bandwidth_khz:150.0

let personal_area =
  (* Bluetooth-class 2.4 GHz radio for the mW node. *)
  make ~name:"2.4 GHz PAN (Bluetooth class)" ~carrier_mhz:2400.0 ~bitrate_kbps:723.0
    ~p_tx_electronics_mw:45.0 ~pa_efficiency:0.25 ~max_tx_dbm:4.0 ~p_rx_mw:40.0 ~p_sleep_uw:30.0
    ~startup_us:150.0 ~sensitivity_dbm:(-85.0) ~noise_figure_db:12.0 ~bandwidth_khz:1000.0

let wlan =
  (* 802.11b-class radio for the W node. *)
  make ~name:"2.4 GHz WLAN (802.11b class)" ~carrier_mhz:2400.0 ~bitrate_kbps:11000.0
    ~p_tx_electronics_mw:400.0 ~pa_efficiency:0.20 ~max_tx_dbm:15.0 ~p_rx_mw:300.0
    ~p_sleep_uw:200.0 ~startup_us:100.0 ~sensitivity_dbm:(-80.0) ~noise_figure_db:10.0
    ~bandwidth_khz:22000.0

let zigbee_class =
  (* 802.15.4-class 2.4 GHz radio, the emerging sensor-network standard. *)
  make ~name:"2.4 GHz 802.15.4 class" ~carrier_mhz:2400.0 ~bitrate_kbps:250.0
    ~p_tx_electronics_mw:25.0 ~pa_efficiency:0.25 ~max_tx_dbm:0.0 ~p_rx_mw:22.0 ~p_sleep_uw:1.5
    ~startup_us:500.0 ~sensitivity_dbm:(-94.0) ~noise_figure_db:10.0 ~bandwidth_khz:2000.0

let catalogue = [ low_power_uhf; zigbee_class; personal_area; wlan ]

let backscatter_uhf =
  (* The A-IoT tag "front end": an envelope detector for the downlink and
     an impedance-switching modulator for the uplink.  There is no PA and
     no synthesizer — p_tx_electronics is the modulator driver (~200 nW),
     max_tx_dbm is -inf (the tag radiates nothing of its own; the
     reflected carrier is accounted by {!Amb_radio.Backscatter}), p_rx is
     the envelope detector + baseband comparator, and sensitivity is the
     detector's, five decades worse than a coherent receiver.  Kept out
     of [catalogue]: the keynote-era tables iterate it. *)
  make ~name:"915 MHz backscatter (A-IoT tag)" ~carrier_mhz:915.0 ~bitrate_kbps:40.0
    ~p_tx_electronics_mw:0.0002 ~pa_efficiency:1.0 ~max_tx_dbm:Float.neg_infinity
    ~p_rx_mw:0.0001 ~p_sleep_uw:0.005 ~startup_us:10.0 ~sensitivity_dbm:(-50.0)
    ~noise_figure_db:25.0 ~bandwidth_khz:100.0

let rfid_reader =
  (* The other end of the backscatter link: a W-node interrogator.  The
     36 dBm EIRP carrier (the UHF RFID regulatory limit) comes out of a
     ~35%-efficient PA, and the receive chain fights its own carrier
     leakage, hence the modest -85 dBm sensitivity despite a mains
     budget.  Kept out of [catalogue]: the keynote-era tables iterate
     it. *)
  make ~name:"915 MHz RFID reader (W node)" ~carrier_mhz:915.0 ~bitrate_kbps:40.0
    ~p_tx_electronics_mw:500.0 ~pa_efficiency:0.35 ~max_tx_dbm:36.0 ~p_rx_mw:350.0
    ~p_sleep_uw:5000.0 ~startup_us:100.0 ~sensitivity_dbm:(-85.0) ~noise_figure_db:15.0
    ~bandwidth_khz:250.0

(** [tx_power radio ~tx_dbm] — total DC power while transmitting at RF
    output level [tx_dbm] (clamped to the radio's maximum). *)
let tx_power radio ~tx_dbm =
  let dbm = Float.min tx_dbm radio.max_tx_dbm in
  let rf_out = Power.to_watts (Amb_units.Decibel.power_of_dbm dbm) in
  Power.add radio.p_tx_electronics (Power.watts (rf_out /. radio.pa_efficiency))

(** [energy_per_bit_tx radio ~tx_dbm] — joules per transmitted bit at the
    nominal bitrate (excludes start-up). *)
let energy_per_bit_tx radio ~tx_dbm =
  Data_rate.energy_per_bit (tx_power radio ~tx_dbm) radio.bitrate

(** [energy_per_bit_rx radio]. *)
let energy_per_bit_rx radio = Data_rate.energy_per_bit radio.p_rx radio.bitrate

(** [startup_energy radio] — energy of one sleep-to-active transition. *)
let startup_energy radio = Energy.of_power_time radio.startup_power radio.startup_time

(** [burst_energy radio ~tx_dbm ~airtime ~startup] — the staged form of
    {!transmit_energy}: one TX burst of [airtime], plus [startup] when
    given, with both computed once by the caller. *)
let burst_energy radio ~tx_dbm ~airtime ~startup =
  let burst = Energy.of_power_time (tx_power radio ~tx_dbm) airtime in
  match startup with Some e -> Energy.add burst e | None -> burst

(** [transmit_energy radio ~tx_dbm ~bits ~include_startup] — energy of one
    TX burst of [bits] payload+overhead bits. *)
let transmit_energy radio ~tx_dbm ~bits ~include_startup =
  burst_energy radio ~tx_dbm ~airtime:(Data_rate.transfer_time radio.bitrate bits)
    ~startup:(if include_startup then Some (startup_energy radio) else None)

(** [receive_energy radio ~bits ~include_startup]. *)
let receive_energy radio ~bits ~include_startup =
  let airtime = Data_rate.transfer_time radio.bitrate bits in
  let burst = Energy.of_power_time radio.p_rx airtime in
  if include_startup then Energy.add burst (startup_energy radio) else burst

(** [effective_energy_per_bit radio ~tx_dbm ~bits] — TX energy per bit
    including the amortised start-up cost; diverges as [bits -> 0]
    (experiment E8's short-packet wall). *)
let effective_energy_per_bit radio ~tx_dbm ~bits =
  if bits <= 0.0 then invalid_arg "Radio_frontend.effective_energy_per_bit: non-positive bits";
  Energy.div (transmit_energy radio ~tx_dbm ~bits ~include_startup:true) bits
