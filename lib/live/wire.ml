open Prelude

type packet = string Vs_impl.Packet.t

type frame =
  | Hello of { proc : Proc.t }
  | Pkt of { src : Proc.t; dst : Proc.t; pkt : packet }
  | View_note of View.t
  | Client of string
  | Trace_line of string
  | Snapshot_req
  | Snapshot of {
      proc : Proc.t;
      views : (Gid.t * (string * Proc.t) list) list;
    }
  | Shutdown

let pp ppf = function
  | Hello { proc } -> Format.fprintf ppf "hello %a" Proc.pp proc
  | Pkt { src; dst; pkt } ->
      Format.fprintf ppf "pkt %a->%a %a" Proc.pp src Proc.pp dst
        (Vs_impl.Packet.pp Buffer.add_string)
        pkt
  | View_note v -> Format.fprintf ppf "view %a" View.pp v
  | Client m -> Format.fprintf ppf "client %S" m
  | Trace_line l -> Format.fprintf ppf "trace %S" l
  | Snapshot_req -> Format.pp_print_string ppf "snapshot?"
  | Snapshot { proc; views } ->
      Format.fprintf ppf "snapshot %a (%d views)" Proc.pp proc
        (List.length views)
  | Shutdown -> Format.pp_print_string ppf "shutdown"

let prefix_f : (string * Proc.t) list Check.Codec.f =
  Check.Codec.(list (pair string proc))

let prefix_codec = Check.Codec.make ~id:"live-prefix" ~version:1 prefix_f

let frame_f : frame Check.Codec.f =
  let open Check.Codec in
  let packet_f = Vs_impl.Packet.codec string in
  let views_f = list (pair gid prefix_f) in
  {
    wr =
      (fun b -> function
        | Hello { proc = p } ->
            byte.wr b 0;
            proc.wr b p
        | Pkt { src; dst; pkt } ->
            byte.wr b 1;
            proc.wr b src;
            proc.wr b dst;
            packet_f.wr b pkt
        | View_note v ->
            byte.wr b 2;
            view.wr b v
        | Client m ->
            byte.wr b 3;
            string.wr b m
        | Trace_line l ->
            byte.wr b 4;
            string.wr b l
        | Snapshot_req -> byte.wr b 5
        | Snapshot { proc = p; views } ->
            byte.wr b 6;
            proc.wr b p;
            views_f.wr b views
        | Shutdown -> byte.wr b 7);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 -> Hello { proc = proc.rd r }
        | 1 ->
            let src = proc.rd r in
            let dst = proc.rd r in
            Pkt { src; dst; pkt = packet_f.rd r }
        | 2 -> View_note (view.rd r)
        | 3 -> Client (string.rd r)
        | 4 -> Trace_line (string.rd r)
        | 5 -> Snapshot_req
        | 6 ->
            let p = proc.rd r in
            Snapshot { proc = p; views = views_f.rd r }
        | 7 -> Shutdown
        | _ -> raise (Malformed "live-wire frame tag"));
  }

let codec = Check.Codec.make ~id:"live-wire" ~version:1 frame_f

let encode f = Check.Codec.encode codec f
let decode b = Check.Codec.decode codec b

let max_frame = 16 * 1024 * 1024

let to_wire f =
  let body = encode f in
  let n = Bytes.length body in
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit body 0 out 4 n;
  out

module Reader = struct
  (* Compacting window buffer: [off, len) holds unconsumed bytes. *)
  type t = {
    mutable buf : bytes;
    mutable off : int;
    mutable len : int;  (* exclusive end of valid data *)
    mutable err : string option;
  }

  let create () = { buf = Bytes.create 65536; off = 0; len = 0; err = None }

  let pending t = t.len - t.off

  let feed t src off n =
    let need = t.len - t.off + n in
    if t.len + n > Bytes.length t.buf then begin
      (* compact first; grow only if still short *)
      Bytes.blit t.buf t.off t.buf 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0;
      if need > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while !cap < need do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf 0 nb 0 t.len;
        t.buf <- nb
      end
    end;
    Bytes.blit src off t.buf t.len n;
    t.len <- t.len + n

  let next t =
    match t.err with
    | Some e -> Error e
    | None ->
        if pending t < 4 then Ok None
        else
          let n = Int32.to_int (Bytes.get_int32_be t.buf t.off) in
          if n < 0 || n > max_frame then begin
            let e = Printf.sprintf "frame length %d out of range" n in
            t.err <- Some e;
            Error e
          end
          else if pending t < 4 + n then Ok None
          else begin
            let body = Bytes.sub t.buf (t.off + 4) n in
            t.off <- t.off + 4 + n;
            if t.off = t.len then begin
              t.off <- 0;
              t.len <- 0
            end;
            match decode body with
            | Ok f -> Ok (Some f)
            | Error e ->
                t.err <- Some e;
                Error e
          end
end
