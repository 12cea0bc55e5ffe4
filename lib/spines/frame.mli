(** Coalesced link-frame header codec: a Wire-encoded manifest of the
    sub-messages packed into one link frame.

    Each manifest entry is length-prefixed, so a corrupted entry can
    never desynchronise the reader into its neighbors, and {!decode_header}
    is total — malformed or truncated input yields [None], never an
    exception. The daemon drops (and counts) any frame whose manifest
    fails to decode or disagrees with the carried payloads. *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

(** Wire-relevant fields of one coalesced sub-message (the payload
    itself travels alongside; hellos are never coalesced). *)
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

(** Raises [Invalid_argument] on an empty list, more than 65535 entries,
    or a field outside its wire width: [origin], [origin_client],
    [priority], [node], [client] and LSA neighbor ids are u16; [data_seq],
    [app_size] and the LSA [seq] are u32; names are at most 255 bytes and
    an LSA lists at most 255 neighbors. Nothing is ever wrapped or
    truncated. *)
val encode_header : meta list -> string

(** Total decoder: [None] on any malformed, truncated, or
    wrong-magic/version input (including the retired version-1 layout). *)
val decode_header : string -> meta list option

(** The frame's link MAC: HMAC-SHA256 over ["frame:" ^ header] under the
    deployment's group key. *)
val mac : Crypto.Hmac.schedule -> string -> string

val mac_valid : Crypto.Hmac.schedule -> tag:string -> string -> bool
