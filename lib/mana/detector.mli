(** MANA: train per-feature Gaussian statistics and a k-means model on a
    baseline capture streamed from a mirror port, then score subsequent
    windows passively and alert on persistent anomalies, tagged with the
    dominant feature's attack family. *)

type alert = {
  alert_time : float;
  score : float;
  dominant_feature : string;
  category : string; (* "arp-anomaly", "scan-or-probe", "volume-flood", ... *)
}

type t

(** A detector reading the capture from now on. Its training windows tile the
    baseline interval [\[t0, t1)] from [t0] in steps of [window]; as
    time-ordered records cross their boundaries they are condensed into
    feature vectors, and only records stamped before [t1] are learned. *)
val create :
  ?window:float ->
  ?threshold:float ->
  ?consecutive_required:int ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  baseline:float * float ->
  Netbase.Pcap.t ->
  t

val alerts : t -> alert list

val alert_categories : t -> string list

val windows_scored : t -> int

val is_trained : t -> bool

(** Fit the model to the baseline's training windows, closing any still
    open. Call it once the capture has passed [t1]. Detection windows then
    follow from [t1]. Raises [Invalid_argument] on an empty baseline. *)
val train : t -> rng:Sim.Rng.t -> unit

(** Close and score the open detection window (manual driving; normally
    use {!start}). Raises [Invalid_argument] if not trained. *)
val evaluate : t -> unit

(** Score one window per period, the first starting now. Raises
    [Invalid_argument] if not trained or if {!evaluate} has already
    opened a detection window. *)
val start : t -> Sim.Engine.timer
