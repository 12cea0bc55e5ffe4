(** Passive packet capture: frame metadata only (no payload inspection),
    streamed to MANA as from a mirror port. *)

type record = {
  time : float;
  size : int;
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  info : info;
}

and info =
  | Arp of { sender_ip : Addr.Ip.t; target_ip : Addr.Ip.t; is_reply : bool }
  | Udp of { src : Addr.Ip.t; dst : Addr.Ip.t; src_port : int; dst_port : int }

(** A frame counter plus the readers it streams records to. No frame is
    kept. *)
type t

val create : unit -> t

(** Convert a frame to a capture record. *)
val of_frame : time:float -> Packet.frame -> record

(** Hand every later captured frame's record to the reader, in capture
    order, after the readers subscribed before it. *)
val subscribe : t -> (record -> unit) -> unit

(** Count a frame, and stream its record to the subscribed readers. *)
val capture : t -> time:float -> Packet.frame -> unit

(** Frames captured so far. *)
val length : t -> int
