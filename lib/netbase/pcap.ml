(* Passive packet capture.

   MANA receives an out-of-band copy of network traffic (the paper's SPAN
   port); a capture streams frame metadata to its readers. Payloads
   are not inspected — mirroring the paper's observation that proprietary
   or encrypted protocols defeat deep inspection, so the IDS must work
   from flow statistics alone. *)

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

(* A capture keeps no frames: it counts them, and builds a record only
   for the readers subscribed to it, which see each record once, in
   capture order. *)
type t = { mutable count : int; mutable readers : (record -> unit) list }

let create () = { count = 0; readers = [] }

let subscribe t reader = t.readers <- t.readers @ [ reader ]

let of_frame ~time (frame : Packet.frame) =
  let info =
    match frame.l3 with
    | Packet.Arp_request { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = false }
    | Packet.Arp_reply { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = true }
    | Packet.Ipv4 { src; dst; udp; _ } ->
        Udp { src; dst; src_port = udp.src_port; dst_port = udp.dst_port }
  in
  { time; size = Packet.frame_size frame; src_mac = frame.src_mac; dst_mac = frame.dst_mac; info }

let capture t ~time frame =
  t.count <- t.count + 1;
  match t.readers with
  | [] -> ()
  | readers ->
      let r = of_frame ~time frame in
      List.iter (fun reader -> reader r) readers

let length t = t.count
