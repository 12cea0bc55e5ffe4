(** Bounded verified-signature cache (FIFO eviction).

    Keys cover (signer, tag, signed bytes) and entries are inserted only
    after a successful HMAC verification, so a forged tag can neither hit
    nor populate the cache. Capacity 0 disables caching (every check
    verifies afresh). *)

type t

(** Raises [Invalid_argument] on negative capacity. *)
val create : capacity:int -> t

val size : t -> int

val clear : t -> unit

(** Check an {!Crypto.Auth.t} over [body]. [`Hit]: the underlying triple
    was verified earlier (batched shares still redo the inclusion-proof
    hashing). [`Valid]: fresh verification succeeded and was cached.
    [`Invalid]: verification failed (nothing cached). *)
val check :
  t ->
  Crypto.Signature.keystore ->
  signer:Crypto.Signature.identity ->
  string ->
  Crypto.Auth.t ->
  [ `Hit | `Valid | `Invalid ]

(** Same, for a bare signature (client update signatures). *)
val check_signature :
  t ->
  Crypto.Signature.keystore ->
  signer:Crypto.Signature.identity ->
  string ->
  Crypto.Signature.t ->
  [ `Hit | `Valid | `Invalid ]
