(** SHA-256 (FIPS 180-4), implemented from scratch because no crypto
    package is available in this environment. Verified against the FIPS
    test vectors in the test suite. *)

(** A digest is 32 raw bytes. *)
type digest = string

type ctx

(** Fresh streaming context. *)
val init : unit -> ctx

(** Absorb input incrementally. *)
val feed_string : ctx -> string -> unit

(** Absorb a byte buffer incrementally (no string conversion). The buffer
    is not retained; mutating it afterwards is safe. *)
val feed_bytes : ctx -> Bytes.t -> unit

(** Independent snapshot of a streaming context: feeding or finalizing
    one does not affect the other. Used to precompute key schedules. *)
val copy : ctx -> ctx

(** Finish and return the digest. The context must not be reused. *)
val finalize : ctx -> digest

(** One-shot hash. *)
val digest : string -> digest

(** Hash the concatenation of the parts without building it. *)
val digest_list : string list -> digest

(** Compression-function calls (64-byte blocks hashed) since the program
    started, over every context: a deterministic measure of hashing
    work. *)
val compressions : unit -> int

(** Lowercase hex rendering of a digest. *)
val to_hex : digest -> string

(** [hex_of_string s] is [to_hex (digest s)]. *)
val hex_of_string : string -> string
