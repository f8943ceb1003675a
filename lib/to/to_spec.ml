open Prelude

type payload = string

type state = {
  pending : payload Seqs.t Proc.Map.t;
  order : (payload * Proc.t) Seqs.t;
  next : int Proc.Map.t;
}

type action =
  | Bcast of Proc.t * payload
  | Order of payload * Proc.t
  | Brcv of { origin : Proc.t; dst : Proc.t; payload : payload }

let initial = { pending = Proc.Map.empty; order = Seqs.empty; next = Proc.Map.empty }

let pending_of s p = Proc.Map.find_or ~default:Seqs.empty p s.pending
let next_of s p = Proc.Map.find_or ~default:1 p s.next

let enabled s = function
  | Bcast (_, _) -> true
  | Order (a, p) -> (
      match Seqs.head_opt (pending_of s p) with
      | Some a' -> String.equal a a'
      | None -> false)
  | Brcv { origin; dst; payload } -> (
      match Seqs.nth1_opt s.order (next_of s dst) with
      | Some (a, q) -> String.equal a payload && Proc.equal q origin
      | None -> false)

let step s = function
  | Bcast (p, a) ->
      { s with pending = Proc.Map.add p (Seqs.append (pending_of s p) a) s.pending }
  | Order (a, p) ->
      let rest = Seqs.remove_head (pending_of s p) in
      let pending =
        if Seqs.is_empty rest then Proc.Map.remove p s.pending
        else Proc.Map.add p rest s.pending
      in
      { s with pending; order = Seqs.append s.order (a, p) }
  | Brcv { dst; _ } -> { s with next = Proc.Map.add dst (next_of s dst + 1) s.next }

let is_external = function
  | Bcast _ | Brcv _ -> true
  | Order _ -> false

(* Symmetry transport: processors appear only as map keys and order
   attributions; the spec is equivariant (audited by Analysis.Symmetry)
   and feeds orbit canonicalization. *)
let permute pi s =
  let rekey m =
    Proc.Map.fold (fun p v acc -> Proc.Map.add (pi p) v acc) m Proc.Map.empty
  in
  {
    pending = rekey s.pending;
    order = Seqs.applytoall (fun (a, p) -> (a, pi p)) s.order;
    next = rekey s.next;
  }

let permute_action pi = function
  | Bcast (p, a) -> Bcast (pi p, a)
  | Order (a, p) -> Order (a, pi p)
  | Brcv { origin; dst; payload } ->
      Brcv { origin = pi origin; dst = pi dst; payload }

let equal_state a b =
  Proc.Map.equal (Seqs.equal String.equal) a.pending b.pending
  && Seqs.equal
       (fun (x, p) (y, q) -> String.equal x y && Proc.equal p q)
       a.order b.order
  && Proc.Map.equal Int.equal a.next b.next

let order_entry_to_buffer buf (a, p) =
  Buffer.add_string buf a;
  Buffer.add_char buf '@';
  Proc.to_buffer buf p

let pp_state ppf s =
  Format.fprintf ppf "@[<v>order=%a@ next=[%a]@]"
    (Seqs.pp order_entry_to_buffer) s.order
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (p, n) -> Format.fprintf ppf "%a↦%d" Proc.pp p n))
    (Proc.Map.bindings s.next)

(* Canonical full-state rendering — injective because payloads print
   verbatim — used as the dedup key for exhaustive exploration. *)
let state_key s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "pd[";
  Render.bindings ~sep:";" Proc.Map.iter Proc.to_buffer ":"
    (Seqs.to_buffer Buffer.add_string)
    buf s.pending;
  Buffer.add_string buf "]|or";
  Seqs.to_buffer order_entry_to_buffer buf s.order;
  Buffer.add_string buf "|nx[";
  Render.bindings ~sep:";" Proc.Map.iter Proc.to_buffer "=" Render.int buf
    s.next;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Flat canonical codec over the same three components [state_key]
   renders; injective up to structural state equality. *)
let codec_state : state Check.Codec.f =
  let open Check.Codec in
  let pending_c = proc_map (seqs string) in
  let order_c = seqs (pair string proc) in
  let next_c = proc_map int in
  {
    wr =
      (fun b s ->
        pending_c.wr b s.pending;
        order_c.wr b s.order;
        next_c.wr b s.next);
    rd =
      (fun r ->
        let pending = pending_c.rd r in
        let order = order_c.rd r in
        let next = next_c.rd r in
        { pending; order; next });
  }

let pp_action ppf = function
  | Bcast (p, a) -> Format.fprintf ppf "bcast(%s)_%a" a Proc.pp p
  | Order (a, p) -> Format.fprintf ppf "to-order(%s,%a)" a Proc.pp p
  | Brcv { origin; dst; payload } ->
      Format.fprintf ppf "brcv(%s)_%a,%a" payload Proc.pp origin Proc.pp dst

let invariant_next_bounded =
  Ioa.Invariant.make "TO: report pointers bounded by order" (fun s ->
      Proc.Map.for_all (fun _ n -> n <= Seqs.length s.order + 1) s.next)
