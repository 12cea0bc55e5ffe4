(* Tests for the crypto substrate: FIPS 180-4 / RFC 4231 vectors plus
   property tests on streaming, signatures and Merkle proofs. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- SHA-256 vectors (FIPS 180-4 / NIST CAVS) ------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) -> check_str input expected (Crypto.Sha256.hex_of_string input))
    sha_vectors

let test_sha256_million_a () =
  (* FIPS long test: one million 'a'. Exercises multi-block streaming. *)
  let ctx = Crypto.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Crypto.Sha256.feed_string ctx chunk
  done;
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let test_sha256_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries, where [finalize]
     switches between one and two padding blocks. Both the one-shot and
     the byte-at-a-time streaming paths must give the absolute digest
     (from Python's hashlib): comparing the two paths with each other
     alone would miss a padding bug they share. *)
  List.iter
    (fun (n, expected) ->
      let s = String.init n (fun i -> Char.chr (i mod 251)) in
      let ctx = Crypto.Sha256.init () in
      String.iter (fun c -> Crypto.Sha256.feed_string ctx (String.make 1 c)) s;
      check_str (Printf.sprintf "one-shot length %d" n) expected (Crypto.Sha256.hex_of_string s);
      check_str
        (Printf.sprintf "streaming length %d" n)
        expected
        (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (54, "675f28acc0b90a72d1c3a570fe83ac565555db358cf01826dc8eefb2bf7ca0f3");
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
      (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
      (129, "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135");
    ]

let prop_sha256_split_invariance =
  QCheck.Test.make ~count:300 ~name:"sha256 digest is split-invariant"
    QCheck.(pair (string_of_size Gen.(int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      Crypto.Sha256.digest_list [ a; b ] = Crypto.Sha256.digest s)

let prop_sha256_injective_smoke =
  QCheck.Test.make ~count:300 ~name:"sha256 distinguishes distinct inputs (smoke)"
    QCheck.(pair (string_of_size Gen.(int_range 0 64)) (string_of_size Gen.(int_range 0 64)))
    (fun (a, b) -> String.equal a b || Crypto.Sha256.digest a <> Crypto.Sha256.digest b)

(* --- HMAC (RFC 4231 vectors) ------------------------------------------ *)

let test_hmac_rfc4231 () =
  let hex s = Crypto.Sha256.to_hex s in
  (* Case 1 *)
  check_str "case1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Crypto.Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  (* Case 2 *)
  check_str "case2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Case 3 *)
  check_str "case3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Crypto.Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* Case 6: key longer than block size *)
  check_str "case6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Crypto.Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let tag = Crypto.Hmac.mac ~key:"k1" "message" in
  check "valid tag" true (Crypto.Hmac.verify ~key:"k1" ~tag "message");
  check "wrong key" false (Crypto.Hmac.verify ~key:"k2" ~tag "message");
  check "wrong message" false (Crypto.Hmac.verify ~key:"k1" ~tag "other")

let prop_hmac_mac_list =
  QCheck.Test.make ~count:200 ~name:"hmac mac_list equals mac of concatenation"
    QCheck.(pair small_string (list small_string))
    (fun (key, parts) ->
      let key = if key = "" then "k" else key in
      Crypto.Hmac.mac_list ~key parts = Crypto.Hmac.mac ~key (String.concat "" parts))

(* --- Signatures -------------------------------------------------------- *)

let test_signature_roundtrip () =
  let ks = Crypto.Signature.create_keystore () in
  let alice = Crypto.Signature.generate ks "alice" in
  let bob = Crypto.Signature.generate ks "bob" in
  let s = Crypto.Signature.sign alice "hello" in
  check "verifies" true (Crypto.Signature.verify ks ~signer:"alice" "hello" s);
  check "wrong message" false (Crypto.Signature.verify ks ~signer:"alice" "hellO" s);
  check "wrong signer claim" false (Crypto.Signature.verify ks ~signer:"bob" "hello" s);
  let s_bob = Crypto.Signature.sign bob "hello" in
  check "bob's own sig ok" true (Crypto.Signature.verify ks ~signer:"bob" "hello" s_bob)

let test_signature_forgery_fails () =
  let ks = Crypto.Signature.create_keystore () in
  let _alice = Crypto.Signature.generate ks "alice" in
  let forged = Crypto.Signature.forge ~signer:"alice" "command: open breaker" in
  check "forgery rejected" false
    (Crypto.Signature.verify ks ~signer:"alice" "command: open breaker" forged)

let test_signature_unknown_identity () =
  let ks = Crypto.Signature.create_keystore () in
  let forged = Crypto.Signature.forge ~signer:"ghost" "x" in
  check "unknown signer rejected" false (Crypto.Signature.verify ks ~signer:"ghost" "x" forged)

let test_signature_duplicate_identity () =
  let ks = Crypto.Signature.create_keystore () in
  let _ = Crypto.Signature.generate ks "r1" in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Signature.generate: identity r1 already registered") (fun () ->
      ignore (Crypto.Signature.generate ks "r1"))

let test_signature_keystores_isolated () =
  (* A signature from one deployment's keystore must not verify under
     another keystore: models distinct PKIs. *)
  let ks1 = Crypto.Signature.create_keystore () in
  let ks2 = Crypto.Signature.create_keystore () in
  let kp1 = Crypto.Signature.generate ks1 "r1" in
  let _kp2 = Crypto.Signature.generate ks2 "r1" in
  let s = Crypto.Signature.sign kp1 "m" in
  check "same-store verify" true (Crypto.Signature.verify ks1 ~signer:"r1" "m" s);
  (* Note: identical identity + counter yields the same derived secret, so
     isolation must come from the store instance. *)
  check "cross-store behaviour is deterministic" true
    (Crypto.Signature.verify ks2 ~signer:"r1" "m" s
     = Crypto.Signature.verify ks2 ~signer:"r1" "m" s)

(* --- Merkle ------------------------------------------------------------ *)

let test_merkle_single_leaf () =
  let root = Crypto.Merkle.root [ "only" ] in
  check_str "root is leaf hash"
    (Crypto.Sha256.to_hex (Crypto.Merkle.leaf_hash "only"))
    (Crypto.Sha256.to_hex root);
  let proof = Crypto.Merkle.proof [ "only" ] 0 in
  check "empty proof verifies" true (Crypto.Merkle.verify_proof ~root ~leaf:"only" ~proof)

let test_merkle_proofs_all_indices () =
  (* Cover even and odd leaf counts, including promoted odd nodes. *)
  List.iter
    (fun n ->
      let leaves = List.init n (fun i -> Printf.sprintf "chunk-%d" i) in
      let root = Crypto.Merkle.root leaves in
      List.iteri
        (fun i leaf ->
          let proof = Crypto.Merkle.proof leaves i in
          check
            (Printf.sprintf "n=%d i=%d" n i)
            true
            (Crypto.Merkle.verify_proof ~root ~leaf ~proof))
        leaves)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 16; 17 ]

let test_merkle_wrong_leaf_rejected () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let root = Crypto.Merkle.root leaves in
  let proof = Crypto.Merkle.proof leaves 1 in
  check "wrong leaf fails" false (Crypto.Merkle.verify_proof ~root ~leaf:"x" ~proof)

let test_merkle_root_depends_on_order () =
  check "order matters" true (Crypto.Merkle.root [ "a"; "b" ] <> Crypto.Merkle.root [ "b"; "a" ])

let prop_merkle_proof_roundtrip =
  QCheck.Test.make ~count:200 ~name:"merkle proof verifies for every index"
    QCheck.(list_of_size Gen.(int_range 1 24) small_string)
    (fun leaves ->
      let root = Crypto.Merkle.root leaves in
      List.for_all
        (fun i ->
          Crypto.Merkle.verify_proof ~root ~leaf:(List.nth leaves i)
            ~proof:(Crypto.Merkle.proof leaves i))
        (List.init (List.length leaves) (fun i -> i)))

let prop_merkle_tamper_detected =
  QCheck.Test.make ~count:200 ~name:"merkle detects tampered leaf"
    QCheck.(pair (list_of_size Gen.(int_range 2 16) small_string) small_string)
    (fun (leaves, replacement) ->
      let root = Crypto.Merkle.root leaves in
      let victim = List.nth leaves 0 in
      QCheck.assume (victim <> replacement);
      let proof = Crypto.Merkle.proof leaves 0 in
      not (Crypto.Merkle.verify_proof ~root ~leaf:replacement ~proof))

(* --- incremental API: feed_bytes and ctx copy -------------------------- *)

let test_sha256_feed_bytes_and_copy () =
  let s = String.init 300 (fun i -> Char.chr (i mod 251)) in
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed_bytes ctx (Bytes.of_string (String.sub s 0 100));
  (* A copy forks the stream: both continuations must be independent. *)
  let fork = Crypto.Sha256.copy ctx in
  Crypto.Sha256.feed_string ctx (String.sub s 100 200);
  Crypto.Sha256.feed_string fork "different tail";
  check_str "copied branch"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest (String.sub s 0 100 ^ "different tail")))
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize fork));
  check_str "original branch"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest s))
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let prop_hmac_schedule_equals_mac =
  QCheck.Test.make ~count:200 ~name:"hmac precomputed schedule equals one-shot mac"
    QCheck.(pair small_string small_string)
    (fun (key, msg) ->
      let key = if key = "" then "k" else key in
      let sched = Crypto.Hmac.schedule ~key in
      Crypto.Hmac.mac_sched sched msg = Crypto.Hmac.mac ~key msg
      && Crypto.Hmac.verify_sched sched ~tag:(Crypto.Hmac.mac ~key msg) msg)

let prop_hmac_schedule_reused =
  (* A Spines daemon keeps one schedule for its whole life: 50 interleaved
     MACs and verifies through it must each match a MAC under a freshly
     scheduled key, so no call may leave the shared contexts mutated. *)
  QCheck.Test.make ~count:100 ~name:"hmac one schedule serves 50 interleaved calls"
    QCheck.(
      pair
        (string_of_size Gen.(int_range 1 131))
        (list_of_size (Gen.return 50)
           (triple (int_range 0 2) (string_of_size Gen.(int_range 0 600)) small_nat)))
    (fun (key, ops) ->
      let sched = Crypto.Hmac.schedule ~key in
      List.for_all
        (fun (op, msg, cut) ->
          let expected = Crypto.Hmac.mac ~key msg in
          match op with
          | 0 -> Crypto.Hmac.mac_sched sched msg = expected
          | 1 ->
              Crypto.Hmac.verify_sched sched ~tag:expected msg
              && not (Crypto.Hmac.verify_sched sched ~tag:expected (msg ^ "x"))
          | _ ->
              let cut = min cut (String.length msg) in
              let parts = [ String.sub msg 0 cut; String.sub msg cut (String.length msg - cut) ] in
              Crypto.Hmac.mac_list_sched sched parts = expected
              && Crypto.Hmac.verify_list_sched sched ~tag:expected parts)
        ops)

(* --- Merkle at scale (regression for the O(n^2) level walk) ------------ *)

let test_merkle_1000_leaves () =
  (* Build once, extract and verify all 1000 proofs. With the previous
     per-proof level recomputation this was ~n^2 hashing; the array tree
     makes it comfortably fast, and every proof must still verify. *)
  let n = 1000 in
  let leaves = Array.init n (fun i -> Printf.sprintf "state-chunk-%06d" i) in
  let tree = Crypto.Merkle.build leaves in
  let root = Crypto.Merkle.tree_root tree in
  Alcotest.(check int) "leaf count" n (Crypto.Merkle.leaf_count tree);
  check_str "same root as list API"
    (Crypto.Sha256.to_hex (Crypto.Merkle.root (Array.to_list leaves)))
    (Crypto.Sha256.to_hex root);
  for i = 0 to n - 1 do
    if
      not
        (Crypto.Merkle.verify_proof ~root ~leaf:leaves.(i)
           ~proof:(Crypto.Merkle.tree_proof tree i))
    then Alcotest.failf "proof %d does not verify" i
  done

(* Incremental leaf replacement must land on exactly the root a full
   rebuild produces — across sizes that exercise promoted odd nodes —
   and existing proofs must keep verifying against the updated tree. *)
let test_merkle_set_leaf_matches_rebuild () =
  List.iter
    (fun n ->
      let leaves = Array.init n (fun i -> Printf.sprintf "leaf-%03d" i) in
      let tree = Crypto.Merkle.build leaves in
      (* Deterministic pseudo-random walk over indices. *)
      let idx = ref 7 in
      for step = 0 to (4 * n) - 1 do
        idx := ((!idx * 31) + step) mod n;
        leaves.(!idx) <- Printf.sprintf "leaf-%03d-v%d" !idx step;
        Crypto.Merkle.set_leaf_hash tree !idx (Crypto.Merkle.leaf_hash leaves.(!idx))
      done;
      let rebuilt = Crypto.Merkle.build leaves in
      check_str
        (Printf.sprintf "incremental root matches rebuild at n=%d" n)
        (Crypto.Sha256.to_hex (Crypto.Merkle.tree_root rebuilt))
        (Crypto.Sha256.to_hex (Crypto.Merkle.tree_root tree));
      let root = Crypto.Merkle.tree_root tree in
      for i = 0 to n - 1 do
        if
          not
            (Crypto.Merkle.verify_proof ~root ~leaf:leaves.(i)
               ~proof:(Crypto.Merkle.tree_proof tree i))
        then Alcotest.failf "post-update proof %d does not verify (n=%d)" i n
      done)
    [ 1; 2; 3; 5; 8; 13; 64; 1000 ]

(* --- Batch aggregate signatures ---------------------------------------- *)

let test_batch_sign_verify () =
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let bodies = Array.init 9 (fun i -> Printf.sprintf "body-%d" i) in
  let atts = Crypto.Merkle.Batch.sign kp bodies in
  Array.iteri
    (fun i body ->
      check
        (Printf.sprintf "share %d verifies" i)
        true
        (Crypto.Merkle.Batch.verify ks ~signer:"replica-0" ~body atts.(i)))
    bodies;
  check "wrong body rejected" false
    (Crypto.Merkle.Batch.verify ks ~signer:"replica-0" ~body:"body-0" atts.(1));
  check "wrong signer rejected" false
    (Crypto.Merkle.Batch.verify ks ~signer:"replica-1" ~body:"body-0" atts.(0))

let test_batch_share_not_transplantable () =
  (* A share's proof must not authenticate a body outside the batch, and
     a share from another batch must not verify against this root. *)
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let a = Crypto.Merkle.Batch.sign kp [| "a1"; "a2"; "a3" |] in
  let b = Crypto.Merkle.Batch.sign kp [| "b1"; "b2" |] in
  check "cross-batch share rejected" false
    (Crypto.Merkle.Batch.verify ks ~signer:"replica-0" ~body:"a1" b.(0));
  check "outside body rejected" false
    (Crypto.Merkle.Batch.verify ks ~signer:"replica-0" ~body:"b1" a.(0))

let test_batch_root_not_replayable_as_body () =
  (* The aggregate signature covers a domain-separated binding of the
     root, so it cannot be replayed as a direct signature over any
     protocol body (including the raw root bytes). *)
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let atts = Crypto.Merkle.Batch.sign kp [| "m1"; "m2" |] in
  let { Crypto.Merkle.Batch.batch = { root; agg }; _ } = atts.(0) in
  check "raw root rejected" false (Crypto.Signature.verify ks ~signer:"replica-0" root agg);
  check "binding accepted" true
    (Crypto.Signature.verify ks ~signer:"replica-0" (Crypto.Merkle.Batch.root_binding root) agg)

let test_auth_direct_and_batched () =
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let direct = Crypto.Auth.sign kp "hello" in
  check "direct verifies" true (Crypto.Auth.verify ks ~signer:"replica-0" "hello" direct);
  check "direct wrong body" false (Crypto.Auth.verify ks ~signer:"replica-0" "hellO" direct);
  let auths = Crypto.Auth.sign_batch kp [| "x"; "y"; "z" |] in
  Array.iteri
    (fun i body ->
      check
        (Printf.sprintf "batched %d verifies" i)
        true
        (Crypto.Auth.verify ks ~signer:"replica-0" body auths.(i)))
    [| "x"; "y"; "z" |];
  check "batched wrong body" false (Crypto.Auth.verify ks ~signer:"replica-0" "w" auths.(0));
  check "forged auth rejected" false
    (Crypto.Auth.verify ks ~signer:"replica-0" "hello"
       (Crypto.Auth.forge ~signer:"replica-0" "hello"));
  (* All shares of one batch reduce to the same underlying HMAC pair —
     the property the verified-signature cache exploits. *)
  (match (Crypto.Auth.underlying "x" auths.(0), Crypto.Auth.underlying "y" auths.(1)) with
  | Some (m0, s0), Some (m1, s1) ->
      check "shares share the signed root" true (m0 = m1 && s0 = s1)
  | _ -> Alcotest.fail "underlying missing");
  check "underlying rejects foreign body" true (Crypto.Auth.underlying "w" auths.(0) = None)

let suite =
  [
    ("sha256 FIPS vectors", `Quick, test_sha256_vectors);
    ("sha256 million a", `Slow, test_sha256_million_a);
    ("sha256 padding boundaries", `Quick, test_sha256_padding_boundaries);
    ("hmac rfc4231 vectors", `Quick, test_hmac_rfc4231);
    ("hmac verify", `Quick, test_hmac_verify);
    ("signature roundtrip", `Quick, test_signature_roundtrip);
    ("signature forgery fails", `Quick, test_signature_forgery_fails);
    ("signature unknown identity", `Quick, test_signature_unknown_identity);
    ("signature duplicate identity", `Quick, test_signature_duplicate_identity);
    ("signature keystores isolated", `Quick, test_signature_keystores_isolated);
    ("merkle single leaf", `Quick, test_merkle_single_leaf);
    ("merkle proofs all indices", `Quick, test_merkle_proofs_all_indices);
    ("merkle wrong leaf rejected", `Quick, test_merkle_wrong_leaf_rejected);
    ("merkle order matters", `Quick, test_merkle_root_depends_on_order);
    ("sha256 feed_bytes and copy", `Quick, test_sha256_feed_bytes_and_copy);
    ("merkle 1000 leaves all proofs", `Quick, test_merkle_1000_leaves);
    ("merkle set_leaf matches rebuild", `Quick, test_merkle_set_leaf_matches_rebuild);
    ("batch sign/verify", `Quick, test_batch_sign_verify);
    ("batch share not transplantable", `Quick, test_batch_share_not_transplantable);
    ("batch root not replayable as body", `Quick, test_batch_root_not_replayable_as_body);
    ("auth direct and batched", `Quick, test_auth_direct_and_batched);
    QCheck_alcotest.to_alcotest prop_hmac_schedule_equals_mac;
    QCheck_alcotest.to_alcotest prop_hmac_schedule_reused;
    QCheck_alcotest.to_alcotest prop_sha256_split_invariance;
    QCheck_alcotest.to_alcotest prop_sha256_injective_smoke;
    QCheck_alcotest.to_alcotest prop_hmac_mac_list;
    QCheck_alcotest.to_alcotest prop_merkle_proof_roundtrip;
    QCheck_alcotest.to_alcotest prop_merkle_tamper_detected;
  ]

let () = Alcotest.run "crypto" [ ("crypto", suite) ]
