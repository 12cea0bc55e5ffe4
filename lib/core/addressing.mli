(** IP plan for the testbed networks (the Fig. 3 architecture): the
    isolated Spines Internal network, the Spines External operations
    network, per-PLC proxy cables, the enterprise network and the
    commercial operations network. *)

val replica_internal : int -> Netbase.Addr.Ip.t

val external_subnet : Netbase.Addr.Ip.t

val replica_external : int -> Netbase.Addr.Ip.t

val proxy_external : int -> Netbase.Addr.Ip.t

(** HMIs fill 10.0.2.201+, then spill into an unused block of the same
    /24; raises [Invalid_argument] past 124 clients. *)
val hmi_external : int -> Netbase.Addr.Ip.t

(** Dedicated proxy-to-PLC wires: one /24 per pair. *)
val cable_proxy : int -> Netbase.Addr.Ip.t

val cable_plc : int -> Netbase.Addr.Ip.t

val enterprise_subnet : Netbase.Addr.Ip.t

val historian_ip : Netbase.Addr.Ip.t

val workstation_ip : Netbase.Addr.Ip.t

val enterprise_gateway : Netbase.Addr.Ip.t

val commercial_subnet : Netbase.Addr.Ip.t

val commercial_master : Netbase.Addr.Ip.t

val commercial_backup : Netbase.Addr.Ip.t

val commercial_hmi : Netbase.Addr.Ip.t

val commercial_plc : int -> Netbase.Addr.Ip.t

val commercial_gateway : Netbase.Addr.Ip.t

val spire_ops_gateway : Netbase.Addr.Ip.t

val spines_internal_port : int

val spines_external_port : int

(** Client-facing session port on the external daemons, and the local
    port session clients answer on. *)
val spines_session_port : int

val session_client_port : int
