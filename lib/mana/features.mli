(** Flow-feature extraction from passive packet capture (metadata only —
    the paper's requirement for IDS in operational SCADA networks). *)

(** The known-flow set plus a per-window accumulator: records are
    [add]ed as they are captured and [close] turns the window into a
    feature vector. *)
type t

(** Feature vector component names, aligned with {!close}'s output. *)
val feature_names : string array

val dimensions : int

(** Per-feature minimum standard deviation, matched to each feature's
    natural scale (counts vs ratios). *)
val std_floors : float array

val create : unit -> t

(** Stop learning new flows: traffic to unknown flows becomes an anomaly
    signal from here on. *)
val freeze : t -> unit

val known_flow_count : t -> int

(** Fold one record into the open window. While learning, its flow is
    added to the known-baseline set. *)
val add : t -> Netbase.Pcap.record -> unit

(** The open window's feature vector; the accumulator starts the next
    window empty. *)
val close : t -> float array

(** [add] each record, then [close]. *)
val extract : t -> Netbase.Pcap.record list -> float array
