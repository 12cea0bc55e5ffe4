(** Minimal JSON AST, printer, and parser for the telemetry export path.
    JSON has a single number type, so all numbers are floats; integral
    values print without a fractional part. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line rendering. *)
val to_string : t -> string

(** Two-space-indented rendering for files meant to be read by humans. *)
val to_string_pretty : t -> string

exception Parse_error of string

(** Parse a complete JSON document; raises [Parse_error] on malformed
    input or trailing garbage. *)
val parse : string -> t

val parse_opt : string -> t option

(** [member key json] is the field [key] of an object, [None] otherwise. *)
val member : string -> t -> t option

val num : t -> float option
