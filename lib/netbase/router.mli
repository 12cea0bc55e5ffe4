(** Firewall/router between network segments (the corporate firewall of
    the paper's Fig. 3 testbed). Forwards UDP between its interfaces
    according to an ACL matched on /24 subnets and destination port. *)

type t

type acl_entry = {
  src_subnet : Addr.Ip.t;
  dst_subnet : Addr.Ip.t;
  dst_port : int option;
  description : string;
}

val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> string -> t

(** Attach an interface with address [ip] to [switch]. Hosts on that
    segment should use this address as their default gateway. *)
val add_interface : t -> ip:Addr.Ip.t -> Switch.t -> Host.nic

(** Admit traffic from [src_subnet] to [dst_subnet] (optionally to one
    [dst_port]); everything not permitted is dropped. *)
val permit :
  t ->
  src_subnet:Addr.Ip.t ->
  dst_subnet:Addr.Ip.t ->
  ?dst_port:int ->
  description:string ->
  unit ->
  unit
