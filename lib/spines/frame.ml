(* Coalesced link-frame header codec.

   When the egress queue flushes several payloads to the same neighbor
   inside one coalesce window, they cross the link as a single frame: one
   HMAC, one header, N sub-messages. The header is a Wire-encoded
   manifest of the sub-messages — each entry length-prefixed so the
   reader can never run past a corrupted sub-entry into the next one —
   and the receiver checks the decoded manifest against the carried
   payloads before handling any of them. A frame that fails to decode is
   dropped whole and counted; it must never crash the daemon (the red
   team gets to put arbitrary bytes on the wire).

   The manifest is what every frame MAC hashes, so its fields are as
   narrow as their values allow while staying fixed-width (canonical:
   one logical manifest, one byte string):

     header   magic u8 | version u8 | count u16 | entry*
     entry    length u16 | kind u8 | body
     kind 0-2 data to a client / group / session:
              origin u16 | origin_client u16 | data_seq u32 | priority u16
              | app_size u32 | (node u16 | client u16)   kind 0
                             | name (u8 length + bytes)  kinds 1, 2
     kind 3   LSA: origin u16 | seq u32 | count u8 | neighbor u16 *

   The entry length is u16 because the bounds above admit entries longer
   than 255 bytes (a 255-byte name, or 255 neighbors). *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

type meta =
  | M_data of {
      origin : int;
      origin_client : int;
      data_seq : int;
      dst : dst_meta;
      priority : int;
      app_size : int;
    }
  | M_lsa of { origin : int; seq : int; up_neighbors : int list }

let magic = 0xF5

let version = 2

(* u16 count field; far above any realistic flush. *)
let max_msgs = 0xFFFF

let kind_client = 0

let kind_group = 1

let kind_session = 2

let kind_lsa = 3

(* Encoded body length of one entry, known before it is written so the
   entry goes straight into the header buffer behind its prefix. *)
let entry_length = function
  | M_data { dst = M_client _; _ } -> 19
  | M_data { dst = M_group name | M_session name; _ } -> 16 + String.length name
  | M_lsa l -> 8 + (2 * List.length l.up_neighbors)

(* Every writer range-checks (Wire raises [Invalid_argument]), so an
   out-of-range field fails the encode instead of wrapping. *)
let write_entry b m =
  Wire.w_u16 b (entry_length m);
  match m with
  | M_data d ->
      Wire.w_u8 b
        (match d.dst with
        | M_client _ -> kind_client
        | M_group _ -> kind_group
        | M_session _ -> kind_session);
      Wire.w_u16 b d.origin;
      Wire.w_u16 b d.origin_client;
      Wire.w_u32 b d.data_seq;
      Wire.w_u16 b d.priority;
      Wire.w_u32 b d.app_size;
      (match d.dst with
      | M_client { node; client } ->
          Wire.w_u16 b node;
          Wire.w_u16 b client
      | M_group name | M_session name -> Wire.w_str8 b name)
  | M_lsa l ->
      Wire.w_u8 b kind_lsa;
      Wire.w_u16 b l.origin;
      Wire.w_u32 b l.seq;
      Wire.w_u8 b (List.length l.up_neighbors);
      List.iter (Wire.w_u16 b) l.up_neighbors

let encode_header metas =
  let n = List.length metas in
  if n = 0 || n > max_msgs then
    invalid_arg "Frame.encode_header: sub-message count out of range";
  Wire.encode ~size_hint:(4 + (n * 32)) (fun b ->
      Wire.w_u8 b magic;
      Wire.w_u8 b version;
      Wire.w_u16 b n;
      List.iter (write_entry b) metas)

let rec read_u16s r n =
  if n = 0 then []
  else
    let v = Wire.r_u16 r in
    v :: read_u16s r (n - 1)

(* Parses one length-delimited manifest entry from a bounded sub-view of
   the header — no per-entry copy — and must consume the view exactly. *)
let decode_meta r =
  let kind = Wire.r_u8 r in
  let m =
    if kind = kind_lsa then begin
      let origin = Wire.r_u16 r in
      let seq = Wire.r_u32 r in
      let up_neighbors = read_u16s r (Wire.r_u8 r) in
      M_lsa { origin; seq; up_neighbors }
    end
    else begin
      let origin = Wire.r_u16 r in
      let origin_client = Wire.r_u16 r in
      let data_seq = Wire.r_u32 r in
      let priority = Wire.r_u16 r in
      let app_size = Wire.r_u32 r in
      let dst =
        if kind = kind_client then begin
          let node = Wire.r_u16 r in
          let client = Wire.r_u16 r in
          M_client { node; client }
        end
        else if kind = kind_group then M_group (Wire.r_str8 r)
        else if kind = kind_session then M_session (Wire.r_str8 r)
        else raise Wire.Truncated
      in
      M_data { origin; origin_client; data_seq; dst; priority; app_size }
    end
  in
  if Wire.at_end r then m else raise Wire.Truncated

let decode_header s =
  try
    let r = Wire.reader s in
    if Wire.r_u8 r <> magic then None
    else if Wire.r_u8 r <> version then None
    else begin
      let n = Wire.r_u16 r in
      if n = 0 then None
      else begin
        let metas = ref [] in
        for _ = 1 to n do
          let len = Wire.r_u16 r in
          metas := decode_meta (Wire.sub_reader r len) :: !metas
        done;
        if Wire.at_end r then Some (List.rev !metas) else None
      end
    end
  with Wire.Truncated | Invalid_argument _ -> None

(* The link MAC covers the encoded header under a domain prefix that no
   single-message encoding starts with. *)
let mac key header = Crypto.Hmac.mac_list_sched key [ "frame:"; header ]

let mac_valid key ~tag header = Crypto.Hmac.verify_list_sched key ~tag [ "frame:"; header ]
