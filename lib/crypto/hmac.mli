(** HMAC-SHA256 (RFC 2104) message authentication, used for Spines link
    authentication and as the core of the simulated signature scheme. *)

(** [mac ~key message] returns the 32-byte authentication tag. *)
val mac : key:string -> string -> string

(** [mac_list ~key parts] authenticates the concatenation of [parts]. *)
val mac_list : key:string -> string list -> string

(** [verify ~key ~tag message] checks a tag in constant time. *)
val verify : key:string -> tag:string -> string -> bool

(** Precomputed key schedule: the inner and outer padded-key blocks are
    absorbed once, so each MAC under a long-lived key costs two context
    copies instead of two key-block compressions plus key normalization.
    A schedule is never mutated, so one can serve any number of MACs and
    verifies. Users: the keystore signatures ([Signature]) and Spines,
    whose daemons and session clients schedule their link key once when
    they are created. *)
type schedule

val schedule : key:string -> schedule

val mac_sched : schedule -> string -> string

val mac_list_sched : schedule -> string list -> string

val verify_sched : schedule -> tag:string -> string -> bool

(** [verify_list_sched sched ~tag parts] checks a tag over the
    concatenation of [parts]. *)
val verify_list_sched : schedule -> tag:string -> string list -> bool
