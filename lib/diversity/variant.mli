(** MultiCompiler diversity model: an exploit crafted against one
    variant's layout fails against any other variant; compiling without
    diversification yields the shared monoculture build. *)

type t

val compile : ?diversify:bool -> Sim.Rng.t -> t

val equal : t -> t -> bool

module Exploit : sig
  type exploit

  (** Craft against a concrete variant (requires its binary). *)
  val craft : name:string -> t -> exploit

  val name : exploit -> string

  val works_against : exploit -> t -> bool
end
