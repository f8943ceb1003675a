open Prelude

module Make (M : Msg_intf.S) = struct
  type state = {
    created : View.Set.t;
    current_viewid : Gid.Bot.t Proc.Map.t;
    queue : (M.t * Proc.t) Seqs.t Gid.Map.t;
    attempted : Proc.Set.t Gid.Map.t;
    registered : Proc.Set.t Gid.Map.t;
    pending : M.t Seqs.t Pg_map.t;
    next : int Pg_map.t;
    next_safe : int Pg_map.t;
  }

  type action =
    | Createview of View.t
    | Newview of View.t * Proc.t
    | Register of Proc.t
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
      attempted = Gid.Map.singleton Gid.g0 p0;
      registered = Gid.Map.singleton Gid.g0 p0;
      pending = Pg_map.empty;
      next = Pg_map.empty;
      next_safe = Pg_map.empty;
    }

  let current_viewid_of s p = Proc.Map.find_or ~default:Gid.Bot.bot p s.current_viewid
  let queue_of s g = Option.value ~default:Seqs.empty (Gid.Map.find_opt g s.queue)

  let attempted_of s g =
    Option.value ~default:Proc.Set.empty (Gid.Map.find_opt g s.attempted)

  let registered_of s g =
    Option.value ~default:Proc.Set.empty (Gid.Map.find_opt g s.registered)

  let pending_of s p g = Pg_map.find_or ~default:Seqs.empty (p, g) s.pending
  let next_of s p g = Pg_map.find_or ~default:1 (p, g) s.next
  let next_safe_of s p g = Pg_map.find_or ~default:1 (p, g) s.next_safe

  let created_view s g =
    View.Set.fold
      (fun v acc -> if Gid.equal (View.id v) g then Some v else acc)
      s.created None

  let att s =
    View.Set.filter
      (fun v -> not (Proc.Set.is_empty (attempted_of s (View.id v))))
      s.created

  let tot_att s =
    View.Set.filter
      (fun v -> Proc.Set.subset (View.set v) (attempted_of s (View.id v)))
      s.created

  let reg s =
    View.Set.filter
      (fun v -> not (Proc.Set.is_empty (registered_of s (View.id v))))
      s.created

  let tot_reg s =
    View.Set.filter
      (fun v -> Proc.Set.subset (View.set v) (registered_of s (View.id v)))
      s.created

  let tot_reg_between s a b =
    let lo = min a b and hi = max a b in
    View.Set.exists
      (fun x -> Gid.lt lo (View.id x) && Gid.lt (View.id x) hi)
      (tot_reg s)

  let msg_pair_equal (m, p) (m', p') = M.equal m m' && Proc.equal p p'

  let enabled s = function
    | Createview v ->
        View.Set.for_all
          (fun w -> not (Gid.equal (View.id v) (View.id w)))
          s.created
        && View.Set.for_all
             (fun w ->
               tot_reg_between s (View.id w) (View.id v)
               || View.intersects v w)
             s.created
    | Newview (v, p) ->
        View.Set.mem v s.created
        && View.mem p v
        && Gid.Bot.lt_gid (current_viewid_of s p) (View.id v)
    | Register _ -> true
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
        let g = View.id v in
        {
          s with
          current_viewid = Proc.Map.add p (Gid.Bot.of_gid g) s.current_viewid;
          attempted = Gid.Map.add g (Proc.Set.add p (attempted_of s g)) s.attempted;
        }
    | Register p -> (
        match current_viewid_of s p with
        | None -> s
        | Some g ->
            {
              s with
              registered =
                Gid.Map.add g (Proc.Set.add p (registered_of s g)) s.registered;
            })
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
    | Newview _ | Register _ | Gpsnd _ | Gprcv _ | Safe _ -> true

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
    Gid.Map.compare Proc.Set.compare a.attempted b.attempted <?> fun () ->
    Gid.Map.compare Proc.Set.compare a.registered b.registered <?> fun () ->
    Pg_map.compare (Seqs.compare M.compare) a.pending b.pending <?> fun () ->
    Pg_map.compare Int.compare a.next b.next <?> fun () ->
    Pg_map.compare Int.compare a.next_safe b.next_safe

  let equal_state a b = compare_state a b = 0

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
    Buffer.add_string t "]|A[";
    Render.cut_bindings l Gid.Map.iter Gid.to_buffer ":" Proc.Set.to_buffer
      s.attempted;
    Buffer.add_string t "]|R[";
    Render.cut_bindings l Gid.Map.iter Gid.to_buffer ":" Proc.Set.to_buffer
      s.registered;
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

  (* Flat canonical codec over the same eight components [state_key]
     renders; injective up to [equal_state] whenever [m] is injective up
     to [M.equal]. *)
  let codec_state (m : M.t Check.Codec.f) : state Check.Codec.f =
    let open Check.Codec in
    let viewids_c = proc_map gid_bot in
    let queue_c = gid_map (seqs (pair m proc)) in
    let members_c = gid_map proc_set in
    let pending_c = pg_map (seqs m) in
    let counters_c = pg_map int in
    {
      wr =
        (fun b s ->
          view_set.wr b s.created;
          viewids_c.wr b s.current_viewid;
          queue_c.wr b s.queue;
          members_c.wr b s.attempted;
          members_c.wr b s.registered;
          pending_c.wr b s.pending;
          counters_c.wr b s.next;
          counters_c.wr b s.next_safe);
      rd =
        (fun r ->
          let created = view_set.rd r in
          let current_viewid = viewids_c.rd r in
          let queue = queue_c.rd r in
          let attempted = members_c.rd r in
          let registered = members_c.rd r in
          let pending = pending_c.rd r in
          let next = counters_c.rd r in
          let next_safe = counters_c.rd r in
          {
            created;
            current_viewid;
            queue;
            attempted;
            registered;
            pending;
            next;
            next_safe;
          });
    }

  let pp_action ppf = function
    | Createview v -> Format.fprintf ppf "dvs-createview(%a)" View.pp v
    | Newview (v, p) ->
        Format.fprintf ppf "dvs-newview(%a)_%a" View.pp v Proc.pp p
    | Register p -> Format.fprintf ppf "dvs-register_%a" Proc.pp p
    | Gpsnd (p, m) -> Format.fprintf ppf "dvs-gpsnd(%a)_%a" M.pp m Proc.pp p
    | Order (m, p, g) ->
        Format.fprintf ppf "dvs-order(%a,%a,%a)" M.pp m Proc.pp p Gid.pp g
    | Gprcv { src; dst; msg; gid } ->
        Format.fprintf ppf "dvs-gprcv(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid
    | Safe { src; dst; msg; gid } ->
        Format.fprintf ppf "dvs-safe(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid

  let pp_state ppf s =
    Format.fprintf ppf
      "@[<v>created=%a;@ viewids=[%a];@ totreg=%a;@ totatt=%a@]" View.Set.pp
      s.created
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (p, g) -> Format.fprintf ppf "%a↦%a" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings s.current_viewid)
      View.Set.pp (tot_reg s) View.Set.pp (tot_att s)
end
