(* Flow-feature extraction for MANA.

   MANA receives passive packet capture and must work without protocol
   knowledge or plaintext (Section III-C): everything here derives from
   frame metadata only. The records of one capture window are folded,
   one at a time, into a fixed feature vector describing volume, flow
   structure, ARP behaviour and scan-like fan-out — the signals that
   distinguish the red team's attacks from baseline SCADA traffic, which
   is famously regular ("short constant system updates"). *)

type flow_key = {
  fk_src : Netbase.Addr.Ip.t;
  fk_dst : Netbase.Addr.Ip.t;
  fk_dst_port : int;
}

let feature_names =
  [|
    "total_packets";
    "total_bytes";
    "mean_packet_size";
    "flow_count";
    "new_flow_count";
    "arp_requests";
    "arp_replies";
    "unsolicited_arp_ratio";
    "max_fanout"; (* distinct (dst, port) touched by one source: scan signal *)
    "max_flow_packets"; (* heaviest single flow: flood signal *)
  |]

let dimensions = Array.length feature_names

(* Minimum standard deviation per feature, matched to its natural scale:
   count-like features get 0.5, the [0,1] ratio feature 0.1. Without this
   a ratio can never reach a high z-score over constant baselines. *)
let std_floors =
  [| 0.5; 0.5; 0.5; 0.5; 0.5; 0.5; 0.5; 0.1; 0.5; 0.5 |]

type t = {
  (* Flows seen during training become the "known" set; traffic to new
     flows afterwards is a strong anomaly signal in operational networks. *)
  known_flows : (flow_key, unit) Hashtbl.t;
  mutable learning : bool;
  (* The open window: packet and byte totals accumulate in [v] in
     capture order; the rest of the vector is filled in by [close]. *)
  mutable v : float array;
  flows : (flow_key, int) Hashtbl.t;
  fanout : (Netbase.Addr.Ip.t, (Netbase.Addr.Ip.t * int, unit) Hashtbl.t) Hashtbl.t;
  mutable arp_requests : int;
  mutable arp_replies : int;
  mutable pending_requests : int;
  mutable unsolicited : int;
  mutable new_flows : int;
}

let create () =
  {
    known_flows = Hashtbl.create 256;
    learning = true;
    v = Array.make dimensions 0.0;
    flows = Hashtbl.create 64;
    fanout = Hashtbl.create 16;
    arp_requests = 0;
    arp_replies = 0;
    pending_requests = 0;
    unsolicited = 0;
    new_flows = 0;
  }

let freeze t = t.learning <- false

let known_flow_count t = Hashtbl.length t.known_flows

let flow_of_record (r : Netbase.Pcap.record) =
  match r.Netbase.Pcap.info with
  | Netbase.Pcap.Udp { src; dst; dst_port; _ } ->
      Some { fk_src = src; fk_dst = dst; fk_dst_port = dst_port }
  | Netbase.Pcap.Arp _ -> None

let add t (r : Netbase.Pcap.record) =
  let v = t.v in
  v.(0) <- v.(0) +. 1.0;
  v.(1) <- v.(1) +. float_of_int r.Netbase.Pcap.size;
  (match flow_of_record r with
  | Some key ->
      let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.flows key) in
      Hashtbl.replace t.flows key count;
      if not (Hashtbl.mem t.known_flows key) then begin
        if t.learning then Hashtbl.replace t.known_flows key ()
        else if count = 1 then t.new_flows <- t.new_flows + 1
      end;
      let touched =
        match Hashtbl.find_opt t.fanout key.fk_src with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 16 in
            Hashtbl.replace t.fanout key.fk_src tbl;
            tbl
      in
      Hashtbl.replace touched (key.fk_dst, key.fk_dst_port) ()
  | None -> ());
  match r.Netbase.Pcap.info with
  | Netbase.Pcap.Arp { is_reply = false; _ } ->
      t.arp_requests <- t.arp_requests + 1;
      t.pending_requests <- t.pending_requests + 1
  | Netbase.Pcap.Arp { is_reply = true; _ } ->
      t.arp_replies <- t.arp_replies + 1;
      if t.pending_requests > 0 then t.pending_requests <- t.pending_requests - 1
      else t.unsolicited <- t.unsolicited + 1
  | Netbase.Pcap.Udp _ -> ()

let close t =
  let v = t.v in
  if v.(0) > 0.0 then v.(2) <- v.(1) /. v.(0);
  v.(3) <- float_of_int (Hashtbl.length t.flows);
  v.(4) <- float_of_int t.new_flows;
  v.(5) <- float_of_int t.arp_requests;
  v.(6) <- float_of_int t.arp_replies;
  v.(7) <-
    (if t.arp_replies > 0 then float_of_int t.unsolicited /. float_of_int t.arp_replies
     else 0.0);
  v.(8) <-
    float_of_int
      (Hashtbl.fold (fun _ touched acc -> max acc (Hashtbl.length touched)) t.fanout 0);
  v.(9) <- float_of_int (Hashtbl.fold (fun _ c acc -> max acc c) t.flows 0);
  t.v <- Array.make dimensions 0.0;
  Hashtbl.reset t.flows;
  Hashtbl.reset t.fanout;
  t.arp_requests <- 0;
  t.arp_replies <- 0;
  t.pending_requests <- 0;
  t.unsolicited <- 0;
  t.new_flows <- 0;
  v

let extract t records =
  List.iter (add t) records;
  close t
