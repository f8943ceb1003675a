open Prelude

module Make (M : Msg_intf.S) = struct
  type state = {
    created : View.Set.t;
    current_viewid : Gid.Bot.t Proc.Map.t;
    queue : (M.t * Proc.t) Seqs.t Gid.Map.t;
    pending : M.t Seqs.t Pg_map.t;
    next : int Pg_map.t;
    next_safe : int Pg_map.t;
  }

  type action =
    | Createview of View.t
    | Newview of View.t * Proc.t
    | Gpsnd of Proc.t * M.t
    | Order of M.t * Proc.t * Gid.t
    | Gprcv of { src : Proc.t; dst : Proc.t; msg : M.t; gid : Gid.t }
    | Safe of { src : Proc.t; dst : Proc.t; msg : M.t; gid : Gid.t }

  let initial p0 =
    let v0 = View.initial p0 in
    {
      created = View.Set.singleton v0;
      current_viewid =
        Proc.Set.fold
          (fun p acc -> Proc.Map.add p (Gid.Bot.of_gid Gid.g0) acc)
          p0 Proc.Map.empty;
      queue = Gid.Map.empty;
      pending = Pg_map.empty;
      next = Pg_map.empty;
      next_safe = Pg_map.empty;
    }

  (* Total lookups with the "init" defaults of Figure 1. *)
  let current_viewid_of s p = Proc.Map.find_or ~default:Gid.Bot.bot p s.current_viewid
  let queue_of s g = Option.value ~default:Seqs.empty (Gid.Map.find_opt g s.queue)
  let pending_of s p g = Pg_map.find_or ~default:Seqs.empty (p, g) s.pending
  let next_of s p g = Pg_map.find_or ~default:1 (p, g) s.next
  let next_safe_of s p g = Pg_map.find_or ~default:1 (p, g) s.next_safe

  let created_view s g =
    View.Set.fold
      (fun v acc -> if Gid.equal (View.id v) g then Some v else acc)
      s.created None

  let msg_pair_equal (m, p) (m', p') = M.equal m m' && Proc.equal p p'

  let enabled s = function
    | Createview v ->
        View.Set.for_all (fun w -> Gid.gt (View.id v) (View.id w)) s.created
    | Newview (v, p) ->
        View.Set.mem v s.created
        && View.mem p v
        && Gid.Bot.lt_gid (current_viewid_of s p) (View.id v)
    | Gpsnd (_, _) -> true
    | Order (m, p, g) -> (
        match Seqs.head_opt (pending_of s p g) with
        | Some m' -> M.equal m m'
        | None -> false)
    | Gprcv { src; dst; msg; gid } -> (
        Gid.Bot.equal (current_viewid_of s dst) (Gid.Bot.of_gid gid)
        &&
        match Seqs.nth1_opt (queue_of s gid) (next_of s dst gid) with
        | Some pair -> msg_pair_equal pair (msg, src)
        | None -> false)
    | Safe { src; dst; msg; gid } -> (
        Gid.Bot.equal (current_viewid_of s dst) (Gid.Bot.of_gid gid)
        &&
        match created_view s gid with
        | None -> false
        | Some v -> (
            let k = next_safe_of s dst gid in
            match Seqs.nth1_opt (queue_of s gid) k with
            | Some pair ->
                msg_pair_equal pair (msg, src)
                && Proc.Set.for_all (fun r -> next_of s r gid > k) (View.set v)
            | None -> false))

  let step s = function
    | Createview v -> { s with created = View.Set.add v s.created }
    | Newview (v, p) ->
        {
          s with
          current_viewid =
            Proc.Map.add p (Gid.Bot.of_gid (View.id v)) s.current_viewid;
        }
    | Gpsnd (p, m) -> (
        match current_viewid_of s p with
        | None -> s
        | Some g ->
            let q = Seqs.append (pending_of s p g) m in
            { s with pending = Pg_map.add (p, g) q s.pending })
    | Order (m, p, g) ->
        let pend = Seqs.remove_head (pending_of s p g) in
        let pending =
          (* Keep states normal: absent key ≡ empty sequence. *)
          if Seqs.is_empty pend then Pg_map.remove (p, g) s.pending
          else Pg_map.add (p, g) pend s.pending
        in
        let q = Seqs.append (queue_of s g) (m, p) in
        { s with pending; queue = Gid.Map.add g q s.queue }
    | Gprcv { dst; gid; _ } ->
        { s with next = Pg_map.add (dst, gid) (next_of s dst gid + 1) s.next }
    | Safe { dst; gid; _ } ->
        {
          s with
          next_safe =
            Pg_map.add (dst, gid) (next_safe_of s dst gid + 1) s.next_safe;
        }

  let is_external = function
    | Createview _ | Order _ -> false
    | Newview _ | Gpsnd _ | Gprcv _ | Safe _ -> true

  let compare_state a b =
    let cmp_queue = Seqs.compare (fun (m, p) (m', p') ->
        match M.compare m m' with 0 -> Proc.compare p p' | c -> c)
    in
    let cmp_bot x y =
      match (x, y) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some g, Some g' -> Gid.compare g g'
    in
    let ( <?> ) c rest = if c <> 0 then c else rest () in
    View.Set.compare a.created b.created <?> fun () ->
    Proc.Map.compare cmp_bot a.current_viewid b.current_viewid <?> fun () ->
    Gid.Map.compare cmp_queue a.queue b.queue <?> fun () ->
    Pg_map.compare (Seqs.compare M.compare) a.pending b.pending <?> fun () ->
    Pg_map.compare Int.compare a.next b.next <?> fun () ->
    Pg_map.compare Int.compare a.next_safe b.next_safe

  let equal_state a b = compare_state a b = 0

  (* Symmetry transport: the VS specification mentions processors only as
     view members, map keys and message attributions, so a permutation
     re-keys and re-labels.  The spec is equivariant — no transition
     consults the *identity* of a processor — which the symmetry audit
     verifies and the explorer exploits for orbit canonicalization. *)
  let permute pi s =
    let rekey_pg m =
      Pg_map.fold (fun (p, g) v acc -> Pg_map.add (pi p, g) v acc) m Pg_map.empty
    in
    {
      created = View.Set.map (View.permute pi) s.created;
      current_viewid =
        Proc.Map.fold
          (fun p g acc -> Proc.Map.add (pi p) g acc)
          s.current_viewid Proc.Map.empty;
      queue =
        Gid.Map.map (Seqs.applytoall (fun (m, p) -> (m, pi p))) s.queue;
      pending = rekey_pg s.pending;
      next = rekey_pg s.next;
      next_safe = rekey_pg s.next_safe;
    }

  let permute_action pi = function
    | Createview v -> Createview (View.permute pi v)
    | Newview (v, p) -> Newview (View.permute pi v, pi p)
    | Gpsnd (p, m) -> Gpsnd (pi p, m)
    | Order (m, p, g) -> Order (m, pi p, g)
    | Gprcv { src; dst; msg; gid } ->
        Gprcv { src = pi src; dst = pi dst; msg; gid }
    | Safe { src; dst; msg; gid } ->
        Safe { src = pi src; dst = pi dst; msg; gid }

  (* Canonical full-state rendering for exhaustive-exploration dedup.
     Injective provided [M.to_buffer] is injective on the payload alphabet
     used.  The per-binding lists keep Format's cut layout, newlines
     included ({!Render.layout}); see the [state_key] documentation. *)
  let key_to_buffer buf s =
    let l = Render.layout buf in
    let t = Render.text l in
    let pair buf (m, p) =
      M.to_buffer buf m;
      Buffer.add_char buf '@';
      Proc.to_buffer buf p
    in
    Buffer.add_char t 'C';
    View.Set.to_buffer t s.created;
    Buffer.add_string t "|V[";
    Render.cut_bindings l Proc.Map.iter Proc.to_buffer "=" Gid.Bot.to_buffer
      s.current_viewid;
    Buffer.add_string t "]|Q[";
    Render.cut_bindings l Gid.Map.iter Gid.to_buffer ":" (Seqs.to_buffer pair)
      s.queue;
    Buffer.add_string t "]|P[";
    Render.cut_bindings l Pg_map.iter Pg_map.key_to_buffer ":"
      (Seqs.to_buffer M.to_buffer)
      s.pending;
    Buffer.add_string t "]|N[";
    Render.cut_bindings l Pg_map.iter Pg_map.key_to_buffer "=" Render.int
      s.next;
    Buffer.add_string t "]|S[";
    Render.cut_bindings l Pg_map.iter Pg_map.key_to_buffer "=" Render.int
      s.next_safe;
    Buffer.add_char t ']';
    Render.finish l

  let state_key s =
    let buf = Buffer.create 256 in
    key_to_buffer buf s;
    Buffer.contents buf

  (* Flat canonical codec over the same six components [state_key]
     renders.  Every container combinator is canonical (sets/maps in
     ascending order with cardinal prefixes), so the image is injective
     up to [equal_state] whenever [m] is injective up to [M.equal]. *)
  let codec_state (m : M.t Check.Codec.f) : state Check.Codec.f =
    let open Check.Codec in
    let viewids_c = proc_map gid_bot in
    let queue_c = gid_map (seqs (pair m proc)) in
    let pending_c = pg_map (seqs m) in
    let counters_c = pg_map int in
    {
      wr =
        (fun b s ->
          view_set.wr b s.created;
          viewids_c.wr b s.current_viewid;
          queue_c.wr b s.queue;
          pending_c.wr b s.pending;
          counters_c.wr b s.next;
          counters_c.wr b s.next_safe);
      rd =
        (fun r ->
          let created = view_set.rd r in
          let current_viewid = viewids_c.rd r in
          let queue = queue_c.rd r in
          let pending = pending_c.rd r in
          let next = counters_c.rd r in
          let next_safe = counters_c.rd r in
          { created; current_viewid; queue; pending; next; next_safe });
    }

  let pp_action ppf = function
    | Createview v -> Format.fprintf ppf "vs-createview(%a)" View.pp v
    | Newview (v, p) -> Format.fprintf ppf "vs-newview(%a)_%a" View.pp v Proc.pp p
    | Gpsnd (p, m) -> Format.fprintf ppf "vs-gpsnd(%a)_%a" M.pp m Proc.pp p
    | Order (m, p, g) ->
        Format.fprintf ppf "vs-order(%a,%a,%a)" M.pp m Proc.pp p Gid.pp g
    | Gprcv { src; dst; msg; gid } ->
        Format.fprintf ppf "vs-gprcv(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid
    | Safe { src; dst; msg; gid } ->
        Format.fprintf ppf "vs-safe(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid

  let pp_state ppf s =
    Format.fprintf ppf "@[<v>created=%a;@ viewids=[%a];@ queues=[%a]@]"
      View.Set.pp s.created
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (p, g) ->
           Format.fprintf ppf "%a↦%a" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings s.current_viewid)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (g, q) ->
           Format.fprintf ppf "%a:%d msgs" Gid.pp g (Seqs.length q)))
      (Gid.Map.bindings s.queue)

  let invariant_3_1 =
    Ioa.Invariant.make "VS 3.1: created ids unique" (fun s ->
        let ids =
          View.Set.fold (fun v acc -> View.id v :: acc) s.created []
        in
        List.length ids = List.length (List.sort_uniq Gid.compare ids))

  let invariant_indices =
    Ioa.Invariant.make "VS: delivery indices within queue bounds" (fun s ->
        Pg_map.for_all
          (fun (_, g) n -> n <= Seqs.length (queue_of s g) + 1)
          s.next
        && Pg_map.for_all
             (fun (p, g) ns ->
               ns <= Seqs.length (queue_of s g) + 1 && ns <= next_of s p g)
             s.next_safe)

  (* The invariants with antecedent coverage predicates: exploring a state
     space on which an antecedent never holds makes the invariant pass
     vacuously, which the analyzer reports. *)
  let checked_invariants =
    [
      Ioa.Invariant.with_antecedent invariant_3_1 (fun s ->
          View.Set.cardinal s.created >= 2);
      Ioa.Invariant.with_antecedent invariant_indices (fun s ->
          not (Pg_map.is_empty s.next) || not (Pg_map.is_empty s.next_safe));
    ]
end
