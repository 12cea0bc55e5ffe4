(** Modbus with real MBAP binary framing (the subset the deployment used:
    coil reads/writes, register reads/writes). Plaintext by design — an
    attacker on the wire can decode and forge frames, which is why Spire
    confines Modbus to the dedicated proxy-to-PLC cable. *)

val tcp_port : int

type request =
  | Read_coils of { addr : int; count : int }
  | Write_single_coil of { addr : int; value : bool }
  | Read_holding_registers of { addr : int; count : int }
  | Write_single_register of { addr : int; value : int }

type response =
  | Coils of bool list
  | Coil_written of { addr : int; value : bool }
  | Registers of int list
  | Register_written of { addr : int; value : int }
  | Exception_response of { function_code : int; exception_code : int }

type 'a framed = { transaction : int; unit_id : int; body : 'a }

(** Raw Modbus bytes on the wire. *)
type Netbase.Packet.payload += Frame of string

exception Decode_error of string

val encode_request : request framed -> string

val encode_response : response framed -> string

(** Raise [Decode_error] on malformed frames. *)
val decode_request : string -> request framed

val decode_response : string -> response framed

(** Coil responses pad to whole bytes; keep only the first [count]. *)
val truncate_coils : bool list -> int -> bool list
