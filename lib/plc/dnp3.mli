(** DNP3 (IEEE 1815) subset with binary link framing: class-based event
    polling, static reads, and CROB-style operate commands. Plaintext and
    unauthenticated like the real protocol — confined to the dedicated
    proxy-to-RTU wire in Spire. *)

val tcp_port : int

type request =
  | Read_class of { classes : int list (* 0 = static, 1..3 = event classes *) }
  | Read_analogs (* group-30 style static analog input read *)
  | Operate of { index : int; close : bool }
  | Clear_events of { through : int }
      (** Drop the buffered events numbered up to [through], the newest
          event the master has read; later events stay buffered. *)

(** [ev_number] counts the outstation's events from 1. *)
type event = { ev_number : int; ev_index : int; ev_closed : bool; ev_time : float }

type response =
  | Static_data of bool list
  | Analog_data of int list (* signed 32-bit analog values by index *)
  | Events of { events : event list; overflow : bool }
      (** [overflow] is DNP3's IIN2.3: the outstation shed events the
          master has not acknowledged, so it must integrity-poll. *)
  | Operate_ack of { op_index : int; op_close : bool; success : bool }
  | Events_cleared

type 'a framed = { sequence : int; body : 'a }

(** Raw DNP3 bytes on the wire. *)
type Netbase.Packet.payload += Frame of string

exception Decode_error of string

val encode_request : request framed -> string

val encode_response : response framed -> string

(** Raise [Decode_error] on malformed frames or checksum mismatch. *)
val decode_request : string -> request framed

val decode_response : string -> response framed
