(* IP plan for the testbed networks (mirrors the Fig. 3 architecture). *)

let ip = Netbase.Addr.Ip.v

let replica_internal i = ip 10 0 1 (11 + i)

(* Spines External: replicas, proxies, HMIs. *)
let external_subnet = ip 10 0 2 0

let replica_external i = ip 10 0 2 (11 + i)

let proxy_external k = ip 10 0 2 (101 + k)

(* HMIs fill 201..253, then spill into the unused 30..100 block of the
   same /24 (below the proxy range at 101+, above the replica range) so
   a scale-out run can attach 100+ HMI clients to one master group. *)
let hmi_external j =
  if j < 53 then ip 10 0 2 (201 + j)
  else if j < 124 then ip 10 0 2 (30 + j - 53)
  else invalid_arg "Addressing.hmi_external: HMI space exhausted (max 124)"

(* Dedicated proxy-to-PLC wires: one /24 per pair. *)
let cable_proxy k = ip 192 168 (50 + k) 1

let cable_plc k = ip 192 168 (50 + k) 2

(* Enterprise network (historian, workstations, red-team start position). *)
let enterprise_subnet = ip 10 0 10 0

let historian_ip = ip 10 0 10 5

let workstation_ip = ip 10 0 10 6

let enterprise_gateway = ip 10 0 10 254

(* Commercial operations network (the parallel testbed system). *)
let commercial_subnet = ip 10 0 20 0

let commercial_master = ip 10 0 20 11

let commercial_backup = ip 10 0 20 12

let commercial_hmi = ip 10 0 20 21

let commercial_plc k = ip 10 0 20 (31 + k)

let commercial_gateway = ip 10 0 20 254

(* Spire operations network gateway (for enterprise connectivity tests). *)
let spire_ops_gateway = ip 10 0 2 254

let spines_internal_port = 8100

let spines_external_port = 8120

(* Client-facing session port on the replicas' external daemons, and the
   local port session clients (proxies/HMIs) answer on. *)
let spines_session_port = 8121

let session_client_port = 9001
