(* Message authentication for protocol traffic: either a direct signature
   over the message body, or a share of a Merkle-aggregated batch
   signature (one signature over the root of a tree of bodies, plus this
   body's inclusion proof).

   Receivers verify both forms through one entry point; [underlying]
   additionally exposes the (message, signature) pair whose HMAC check
   authenticates the value, so a verified-signature cache can key on it —
   every attestation of a batch reduces to the same signed root, letting
   the cache collapse a whole batch to a single signature verification. *)

type t =
  | Direct of Signature.t
  | Batched of Merkle.Batch.attestation

let sign kp body = Direct (Signature.sign kp body)

let sign_batch kp bodies = Array.map (fun att -> Batched att) (Merkle.Batch.sign kp bodies)

(* The (message, signature) pair established by the HMAC check — after
   validating, for batched form, that the inclusion proof binds [body] to
   the signed root (hashing only; [None] when it does not). *)
let underlying body = function
  | Direct s -> Some (body, s)
  | Batched att ->
      if
        Merkle.verify_proof ~root:att.Merkle.Batch.batch.Merkle.Batch.root ~leaf:body
          ~proof:att.Merkle.Batch.proof
      then
        Some
          ( Merkle.Batch.root_binding att.Merkle.Batch.batch.Merkle.Batch.root,
            att.Merkle.Batch.batch.Merkle.Batch.agg )
      else None

let verify ks ~signer body t =
  match underlying body t with
  | None -> false
  | Some (message, s) -> Signature.verify ks ~signer message s

(* A forged direct signature, for modelling adversaries without the key. *)
let forge ~signer body = Direct (Signature.forge ~signer body)

let size_bytes = function
  | Direct _ -> Signature.size_bytes
  | Batched att -> Merkle.Batch.size_bytes att
