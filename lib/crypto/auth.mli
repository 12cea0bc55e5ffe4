(** Protocol-message authentication: a direct signature over the body, or
    a share of a Merkle-aggregated batch signature (the amortization that
    lets Prime sign many outbound messages with one signature).

    Verification of a batched share checks the inclusion proof (hashing
    only) and the shared root signature; since every share of a batch
    reduces to the same signed root, a verified-signature cache keyed via
    {!underlying} pays one signature check per batch. *)

type t =
  | Direct of Signature.t
  | Batched of Merkle.Batch.attestation

(** Sign one body directly. *)
val sign : Signature.keypair -> string -> t

(** [sign_batch kp bodies] signs the batch's Merkle root once and returns
    one authenticator per body, in order. Raises on an empty array. *)
val sign_batch : Signature.keypair -> string array -> t array

(** The (message, signature) pair whose HMAC check authenticates this
    value over [body]: the body itself for [Direct]; the domain-separated
    batch root for [Batched], provided the inclusion proof binds [body]
    to it ([None] otherwise — structurally invalid). *)
val underlying : string -> t -> (string * Signature.t) option

(** [verify ks ~signer body t] checks [t] authenticates [body] as
    [signer]. *)
val verify : Signature.keystore -> signer:Signature.identity -> string -> t -> bool

(** A syntactically well-formed but invalid authenticator, for modelling
    forgery attempts by adversaries who lack the key. *)
val forge : signer:Signature.identity -> string -> t

(** Wire size, for traffic modelling. *)
val size_bytes : t -> int
