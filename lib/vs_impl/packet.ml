open Prelude

type 'm t =
  | Fwd of { gid : Gid.t; fsn : int; payload : 'm }
  | Seq of { gid : Gid.t; sn : int; origin : Proc.t; payload : 'm }
  | Ack of { gid : Gid.t; upto : int }
  | Stable of { gid : Gid.t; upto : int }

let gid = function
  | Fwd { gid; _ } | Seq { gid; _ } | Ack { gid; _ } | Stable { gid; _ } -> gid

let is_fwd = function Fwd _ -> true | Seq _ | Ack _ | Stable _ -> false

let tag = function Fwd _ -> 0 | Seq _ -> 1 | Ack _ -> 2 | Stable _ -> 3

let permute pi = function
  | Seq s -> Seq { s with origin = pi s.origin }
  | (Fwd _ | Ack _ | Stable _) as p -> p

let compare cmp a b =
  match (a, b) with
  | Fwd x, Fwd y -> (
      match Gid.compare x.gid y.gid with
      | 0 -> (
          match Int.compare x.fsn y.fsn with
          | 0 -> cmp x.payload y.payload
          | c -> c)
      | c -> c)
  | Seq x, Seq y -> (
      match Gid.compare x.gid y.gid with
      | 0 -> (
          match Int.compare x.sn y.sn with
          | 0 -> (
              match Proc.compare x.origin y.origin with
              | 0 -> cmp x.payload y.payload
              | c -> c)
          | c -> c)
      | c -> c)
  | Ack x, Ack y -> (
      match Gid.compare x.gid y.gid with 0 -> Int.compare x.upto y.upto | c -> c)
  | Stable x, Stable y -> (
      match Gid.compare x.gid y.gid with 0 -> Int.compare x.upto y.upto | c -> c)
  | a, b -> Int.compare (tag a) (tag b)

(* [tag[gid]] then [sep] and [n]: the common prefix of every packet. *)
let head buf tag gid sep n =
  Buffer.add_string buf tag;
  Buffer.add_char buf '[';
  Gid.to_buffer buf gid;
  Buffer.add_char buf ']';
  Buffer.add_string buf sep;
  Render.int buf n

let to_buffer write_m buf = function
  | Fwd { gid; fsn; payload } ->
      head buf "fwd" gid "#" fsn;
      Buffer.add_char buf '(';
      write_m buf payload;
      Buffer.add_char buf ')'
  | Seq { gid; sn; origin; payload } ->
      head buf "seq" gid "#" sn;
      Buffer.add_char buf '(';
      write_m buf payload;
      Buffer.add_string buf " from ";
      Proc.to_buffer buf origin;
      Buffer.add_char buf ')'
  | Ack { gid; upto } -> head buf "ack" gid "≤" upto
  | Stable { gid; upto } -> head buf "stable" gid "≤" upto

let pp write_m ppf p = Render.pp (to_buffer write_m) ppf p

(* Flat canonical codec: tag byte + constructor fields in declaration
   order; canonical because every field codec is. *)
let codec (m : 'm Check.Codec.f) : 'm t Check.Codec.f =
  let open Check.Codec in
  {
    wr =
      (fun b -> function
        | Fwd { gid; fsn; payload } ->
            byte.wr b 0;
            Check.Codec.gid.wr b gid;
            int.wr b fsn;
            m.wr b payload
        | Seq { gid; sn; origin; payload } ->
            byte.wr b 1;
            Check.Codec.gid.wr b gid;
            int.wr b sn;
            proc.wr b origin;
            m.wr b payload
        | Ack { gid; upto } ->
            byte.wr b 2;
            Check.Codec.gid.wr b gid;
            int.wr b upto
        | Stable { gid; upto } ->
            byte.wr b 3;
            Check.Codec.gid.wr b gid;
            int.wr b upto);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 ->
            let gid = Check.Codec.gid.rd r in
            let fsn = int.rd r in
            let payload = m.rd r in
            Fwd { gid; fsn; payload }
        | 1 ->
            let gid = Check.Codec.gid.rd r in
            let sn = int.rd r in
            let origin = proc.rd r in
            let payload = m.rd r in
            Seq { gid; sn; origin; payload }
        | 2 ->
            let gid = Check.Codec.gid.rd r in
            let upto = int.rd r in
            Ack { gid; upto }
        | 3 ->
            let gid = Check.Codec.gid.rd r in
            let upto = int.rd r in
            Stable { gid; upto }
        | _ -> raise (Malformed "packet tag"));
  }
