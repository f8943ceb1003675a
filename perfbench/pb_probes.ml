(* Layer probes for the live path that need no fleet: a two-engine
   in-process loopback drives Vs_impl.Engine through its public inputs
   and output enumerations, every packet crosses Live.Wire's stream
   framing, and the recorded frames are replayed through one Live.Conn
   socketpair. *)

open Prelude
open Pb_util
module E = Vs_impl.Engine.Make (Msg_intf.String_msg)
module P = Vs_impl.Packet

(* Cost of one in-memory span record (two clock reads and a push). *)
let span_cost_ns () =
  let b = Buf.create () in
  let n = 100_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    let s = now_ns () in
    Buf.push b (ns_since s)
  done;
  ns_since t0 /. float_of_int n

(* The endpoint's output pump: every enabled output to a fixpoint. *)
let pump ~send st =
  let continue = ref true in
  while !continue do
    continue := false;
    let rec fwds () =
      match E.fwd_send !st with
      | Some (dst, pkt) ->
          send dst pkt;
          st := E.sent_fwd !st;
          continue := true;
          fwds ()
      | None -> ()
    in
    fwds ();
    let rec bcasts () =
      match E.bcast_sends !st with
      | [] -> ()
      | sends ->
          List.iter
            (fun (dst, pkt) ->
              send dst pkt;
              match pkt with
              | P.Seq { gid; _ } -> st := E.sent_bcast !st ~dst ~gid
              | _ -> ())
            sends;
          continue := true;
          bcasts ()
    in
    bcasts ();
    List.iter
      (fun (dst, pkt) ->
        send dst pkt;
        match pkt with
        | P.Ack { gid; upto } ->
            st := E.sent_ack !st ~gid ~upto;
            continue := true
        | _ -> ())
      (E.ack_sends !st);
    List.iter
      (fun (dst, pkt) ->
        send dst pkt;
        match pkt with
        | P.Stable { gid; upto } ->
            st := E.sent_stable !st ~dst ~gid ~upto;
            continue := true
        | _ -> ())
      (E.stable_sends !st);
    while E.deliverable !st <> None do
      st := E.delivered !st;
      continue := true
    done;
    while E.safe_ready !st <> None do
      st := E.safed !st;
      continue := true
    done
  done

let loopback_msgs = 20_000
let batch = 16

let engine_wire_conn () =
  let members = Proc.Set.universe 2 in
  let v = View.make ~id:(Gid.succ Gid.g0) ~set:members in
  let eng =
    Array.init 2 (fun p ->
        ref
          (E.on_newview
             (E.initial ~drop_stale:true ~p0:(Proc.Set.singleton p) p)
             v))
  in
  let q = Queue.create () in
  let frames = ref [] in
  let nframes = ref 0 in
  let wire_bytes = ref 0 and enc_ns = ref 0. and dec_ns = ref 0. in
  let reader = Live.Wire.Reader.create () in
  let send_from src dst pkt =
    let t0 = now_ns () in
    let fr = Live.Wire.Pkt { src; dst; pkt } in
    let b = Live.Wire.to_wire fr in
    enc_ns := !enc_ns +. ns_since t0;
    wire_bytes := !wire_bytes + Bytes.length b;
    incr nframes;
    if !nframes <= loopback_msgs then frames := fr :: !frames;
    Queue.push b q
  in
  let eng_ns = ref 0. in
  (* engine time = time in engine calls minus the wire work their sends
     did *)
  let timed_engine f =
    let w0 = !enc_ns in
    let t0 = now_ns () in
    f ();
    eng_ns := !eng_ns +. ns_since t0 -. (!enc_ns -. w0)
  in
  let k = ref 0 in
  while !k < loopback_msgs do
    for _ = 1 to batch do
      if !k < loopback_msgs then begin
        let p = !k mod 2 in
        timed_engine (fun () ->
            eng.(p) := E.on_gpsnd !(eng.(p)) ("m" ^ string_of_int !k);
            pump ~send:(send_from p) eng.(p));
        incr k
      end
    done;
    while not (Queue.is_empty q) do
      let b = Queue.pop q in
      let t0 = now_ns () in
      Live.Wire.Reader.feed reader b 0 (Bytes.length b);
      let fr = Live.Wire.Reader.next reader in
      dec_ns := !dec_ns +. ns_since t0;
      match fr with
      | Ok (Some (Live.Wire.Pkt { src; dst; pkt })) ->
          timed_engine (fun () ->
              eng.(dst) := E.on_packet !(eng.(dst)) ~src pkt;
              pump ~send:(send_from dst) eng.(dst))
      | _ -> gate false "probe: wire frame round trip"
    done
  done;
  gate
    (E.next_deliver_of !(eng.(1)) (View.id v) - 1 = loopback_msgs)
    "probe: loopback delivered every message";
  let t0 = now_ns () in
  ignore (E.retransmit_sends !(eng.(0)));
  let rtx_ns = ns_since t0 in
  (* Conn: the recorded frames through one socketpair *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let ca = Live.Conn.create a and cb = Live.Conn.create b in
  let frames = Array.of_list (List.rev !frames) in
  let n = Array.length frames in
  let got = ref 0 in
  let t0 = now_ns () in
  let i = ref 0 in
  while !got < n && Live.Conn.alive ca && Live.Conn.alive cb do
    let upto = min n (!i + 64) in
    while !i < upto do
      Live.Conn.send ca frames.(!i);
      incr i
    done;
    Live.Conn.flush ca;
    ignore (Unix.select [ b ] [] [] 0.01);
    got := !got + List.length (Live.Conn.recv cb)
  done;
  let conn_ns = ns_since t0 in
  gate (!got = n) "probe: conn socketpair carried every frame";
  Live.Conn.close ca;
  Live.Conn.close cb;
  let nf = float_of_int (max 1 !nframes) in
  let nm = float_of_int loopback_msgs in
  [
    m "engine.us_per_msg" "us" (!eng_ns /. nm /. 1000.);
    m "engine.retransmit_us" "us" (rtx_ns /. 1000.);
    m "wire.bytes_per_msg" "B" (float_of_int !wire_bytes /. nm);
    m "wire.encode_ns" "ns" (!enc_ns /. nf);
    m "wire.decode_ns" "ns" (!dec_ns /. nf);
    m "conn.frame_us" "us" (conn_ns /. float_of_int (max 1 n) /. 1000.);
  ]
