(* SCADA-level protocol messages exchanged beside the Prime stream.

   - [Breaker_command]: a replica instructs a proxy to actuate a breaker.
     The proxy only obeys after f + 1 distinct replicas send the same
     command for the same execution point — a compromised master alone
     cannot move a breaker.
   - [Hmi_state]: a replica pushes a display update; the HMI likewise
     requires f + 1 agreeing replicas before repainting.
   - [App_state_request]/[App_state_reply]: the application-level state
     transfer protocol between SCADA masters (Section III-A). Replies are
     accepted once f + 1 carry the same digest.
   - [Checkpoint_reply]: the durable-store variant of a transfer reply —
     an authenticated [Store.Checkpoint.t]; the requester votes by the
     checkpoint's Merkle root and accepts once f + 1 *distinct* replicas
     vouch for the same root. The checkpoint's own signature pins it to
     the replica that produced it; [ckr_sig] separately binds the sending
     replica to the root it vouches for, so votes can be deduplicated by
     authenticated sender. *)

type t =
  | Breaker_command of {
      bc_rep : int;
      bc_exec_seq : int;
      bc_breaker : string;
      bc_close : bool;
      bc_sig : Crypto.Signature.t;
    }
  | Hmi_state of {
      hs_rep : int;
      hs_exec_seq : int;
      hs_breaker : string;
      hs_closed : bool;
      hs_sig : Crypto.Signature.t;
    }
  | Hmi_batch of {
      hb_rep : int;
      hb_exec_seq : int;
      hb_changes : (string * bool) list;
      hb_sig : Crypto.Signature.t;
    }
  | App_state_request of { asr_rep : int }
  | App_state_reply of {
      rep : int;
      state_blob : string;
      next_exec_pp : int;
      exec_seq : int;
      cursor : int array;
      client_seqs : (string * int) list;
      reply_sig : Crypto.Signature.t;
    }
  | Checkpoint_reply of {
      ckr_rep : int;
      ckr_ck : Store.Checkpoint.t;
      ckr_sig : Crypto.Signature.t; (* sender's vote: covers (ckr_rep, ck_root) *)
    }

type Netbase.Packet.payload += Scada_msg of t

let encode_breaker_command ~rep ~exec_seq ~breaker ~close =
  Printf.sprintf "bc:%d:%d:%s:%d" rep exec_seq breaker (if close then 1 else 0)

let encode_hmi_state ~rep ~exec_seq ~breaker ~closed =
  Printf.sprintf "hs:%d:%d:%s:%d" rep exec_seq breaker (if closed then 1 else 0)

let encode_hmi_batch ~rep ~exec_seq ~changes =
  Printf.sprintf "hb:%d:%d:%s" rep exec_seq
    (String.concat ","
       (List.map (fun (b, closed) -> Printf.sprintf "%s=%d" b (if closed then 1 else 0)) changes))

let encode_checkpoint_reply ~rep ~root =
  Printf.sprintf "ckr:%d:%s" rep (Crypto.Sha256.to_hex root)

let encode_app_state_reply ~rep ~state_blob ~next_exec_pp ~exec_seq ~cursor ~client_seqs =
  Printf.sprintf "asr:%d:%d:%d:%s:%s:%s" rep next_exec_pp exec_seq
    (String.concat "," (Array.to_list (Array.map string_of_int cursor)))
    (String.concat ","
       (List.map (fun (c, s) -> Printf.sprintf "%s=%d" c s)
          (List.sort compare client_seqs)))
    state_blob

let size = function
  | Breaker_command _ | Hmi_state _ -> 80 + Crypto.Signature.size_bytes
  | Hmi_batch { hb_changes; _ } ->
      40 + (12 * List.length hb_changes) + Crypto.Signature.size_bytes
  | App_state_request _ -> 40
  | App_state_reply { state_blob; cursor; client_seqs; _ } ->
      80 + Crypto.Signature.size_bytes + String.length state_blob
      + (8 * Array.length cursor)
      + (24 * List.length client_seqs)
  | Checkpoint_reply { ckr_ck; _ } ->
      16 + Crypto.Signature.size_bytes + Store.Checkpoint.size ckr_ck
