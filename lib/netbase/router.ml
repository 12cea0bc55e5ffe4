(* Corporate firewall / router between network segments.

   The red-team testbed (Fig. 3) separates the enterprise network from the
   operations networks with a firewall. This device forwards UDP between
   its interfaces according to an ACL; in the commercial configuration the
   ACL admits the historian-to-SCADA-master flows that the red team then
   rode into the operations network. *)

type acl_entry = {
  src_subnet : Addr.Ip.t; (* matched on /24 *)
  dst_subnet : Addr.Ip.t;
  dst_port : int option; (* None = any port *)
  description : string;
}

type t = {
  host : Host.t; (* reuse the host stack for NICs/ARP *)
  mutable acl : acl_entry list;
  trace : Sim.Trace.t;
  engine : Sim.Engine.t;
}

let allowed t ~src ~dst ~dst_port =
  List.exists
    (fun e ->
      Addr.Ip.same_subnet24 e.src_subnet src
      && Addr.Ip.same_subnet24 e.dst_subnet dst
      && match e.dst_port with None -> true | Some p -> p = dst_port)
    t.acl

(* Forward an admitted packet out of the interface on the destination's
   subnet, re-resolving the next hop with the router's own ARP. *)
let forward t (frame : Packet.frame) =
  match frame.l3 with
  | Packet.Ipv4 { src; dst; ttl; udp } ->
      if ttl <= 1 then ()
      else if allowed t ~src ~dst ~dst_port:udp.dst_port then
        Host.udp_send ~spoof_src:src t.host ~dst_ip:dst ~dst_port:udp.dst_port
          ~src_port:udp.src_port ~size:udp.size udp.payload
      else
        Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"router"
          "%s: ACL drop %s" (Host.name t.host) (Packet.describe_l3 frame.l3)
  | Packet.Arp_request _ | Packet.Arp_reply _ -> ()

let create ~engine ~trace name =
  let host = Host.create ~os:Host.centos_minimal ~engine ~trace name in
  let t = { host; acl = []; trace; engine } in
  (* Swallow IP packets addressed to other hosts and route them; let ARP
     and router-addressed traffic take the normal host path. *)
  Host.set_raw_handler host
    (Some
       (fun nic frame ->
         match frame.Packet.l3 with
         | Packet.Ipv4 { dst; _ }
           when (not (Addr.Ip.equal dst (Host.nic_ip nic)))
                && Addr.Mac.equal frame.dst_mac (Host.nic_mac nic) ->
             forward t frame;
             true
         | Packet.Ipv4 _ | Packet.Arp_request _ | Packet.Arp_reply _ -> false));
  t

let add_interface t ~ip switch =
  let nic = Host.add_nic t.host ~ip in
  let port = Host.plug_into_switch t.host nic switch in
  (* The router is provisioned infrastructure: its MAC is registered in
     the switch's static table so port security admits it. *)
  Switch.bind_mac switch (Host.nic_mac nic) port;
  nic

let permit t ~src_subnet ~dst_subnet ?dst_port ~description () =
  t.acl <- t.acl @ [ { src_subnet; dst_subnet; dst_port; description } ]
