(* Static action-footprint analysis: per-action-class read/write summaries
   against a declared state-component schema, a sound may-conflict relation
   derived from them, and the ample-set builder that turns certified
   independence into partial-order reduction in the explorer.

   Everything here is *declared* by the registry entry and *audited*
   dynamically ({!audit}): the write-conformance pass replays sampled steps
   and diffs a per-family projection of the state against the declared
   write set, and the commutativity pass replays swapped co-enabled
   independent pairs, requiring exact state-key agreement or joinability
   within a small bounded probe.  A schema that certifies a dependent pair
   as independent shows up as an [Unsound_certification] finding, which
   fails [@lint]. *)

type kind =
  | Read  (** reads the value at [inst] (or any part of it) *)
  | Write  (** replaces the value at [inst] *)
  | Push  (** enqueues at the tail of a FIFO at [inst] *)
  | Pop  (** dequeues from the head of a FIFO at [inst] *)
  | Append  (** appends to a grow-only sequence at [inst] *)
  | Read_prefix  (** reads a prefix of a grow-only sequence at [inst] *)
  | Read_at  (** reads one existing index/key of a sequence or map *)
  | Insert  (** binds a fresh key in a map at [inst] *)

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Push -> "push"
  | Pop -> "pop"
  | Append -> "append"
  | Read_prefix -> "read-prefix"
  | Read_at -> "read-at"
  | Insert -> "insert"

let is_read = function
  | Read | Read_prefix | Read_at -> true
  | Write | Push | Pop | Append | Insert -> false

(* The commutation matrix over effect kinds on the *same* instance.  Two
   effects on overlapping instances commute iff their kinds do.  The
   matrix is deliberately conservative: anything not listed clashes.

   - reads of any flavour commute with each other;
   - [Push] commutes with [Pop]: with the pushed element at the tail and
     the popped element at the head these act on disjoint ends of a
     non-empty FIFO (enabledness of the pop witnesses non-emptiness);
   - [Append] commutes with [Read_prefix] and [Read_at]: the appended
     suffix lies beyond any already-readable prefix or index;
   - [Insert] commutes with [Read_at] and with [Insert]: fresh keys
     cannot alias an existing read key, and two inserts of distinct fresh
     keys are order-insensitive (two inserts of the *same* key cannot be
     co-enabled, since firing either un-freshens it). *)
let kinds_commute a b =
  match (a, b) with
  | x, y when is_read x && is_read y -> true
  | Push, Pop | Pop, Push -> true
  | Append, (Read_prefix | Read_at) | (Read_prefix | Read_at), Append -> true
  | Insert, (Read_at | Insert) | Read_at, Insert -> true
  | _ -> false

type eff = { fam : string; inst : string; kind : kind }

let eff ?(inst = "*") kind fam = { fam; inst; kind }
let pp_eff ppf e = Format.fprintf ppf "%s(%s@%s)" (kind_name e.kind) e.fam e.inst

let inst_overlap a b =
  String.equal a.inst "*" || String.equal b.inst "*"
  || String.equal a.inst b.inst

let conflict a b =
  String.equal a.fam b.fam && inst_overlap a b && not (kinds_commute a.kind b.kind)

(* First clashing effect pair between two footprints, if any. *)
let clash fa fb =
  List.find_map
    (fun a ->
      List.find_map (fun b -> if conflict a b then Some (a, b) else None) fb)
    fa

let writes foot =
  List.filter_map (fun e -> if is_read e.kind then None else Some e.fam) foot
  |> List.sort_uniq String.compare

type ('s, 'a) schema = {
  components : (string * string) list;
      (* declared state families: (name, one-line description) *)
  class_of : 'a -> string;
  classes : string list;
  class_foot : string -> eff list;
      (* static may-summary of a whole class; instances usually "*" *)
  foot : 's -> 'a -> eff list;
      (* concrete footprint of one action at one state; instances concrete *)
  fragile : string -> bool;
      (* class proposal is RNG-gated: not persistent, poisons ample sets *)
  visible : string -> bool;
      (* class is external / refinement-mapped: never inside an ample set *)
  serialized : string -> bool;
      (* co-enabled same-class offers from one agent are a single serial
         stream (e.g. one next-sn broadcast offer per destination), so the
         self-summary clash is discharged for distinct concrete footprints *)
  invariant_reads : string list;
      (* families any checked invariant or refinement relation reads *)
  frozen : 's -> string list;
      (* families that can no longer change anywhere in the cone of [s];
         summary clashes on a frozen family are discharged *)
  project : 's -> (string * string) list;
      (* per-family rendering of the state, for write-conformance diffs *)
}

(* ------------------------------------------------------------------ *)
(* Static may-conflict relation over class pairs.                      *)

type conflict_entry = {
  ce_a : string;
  ce_b : string;
  ce_eff_a : eff;
  ce_eff_b : eff;
}

let conflicts sch =
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun d -> (c, d)) (c :: rest) @ pairs rest
  in
  List.filter_map
    (fun (a, b) ->
      match clash (sch.class_foot a) (sch.class_foot b) with
      | Some (ea, eb) -> Some { ce_a = a; ce_b = b; ce_eff_a = ea; ce_eff_b = eb }
      | None -> None)
    (pairs sch.classes)

let independent_pairs sch =
  let dep = conflicts sch in
  let clashes a b =
    List.exists
      (fun c ->
        (String.equal c.ce_a a && String.equal c.ce_b b)
        || (String.equal c.ce_a b && String.equal c.ce_b a))
      dep
  in
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun d -> (c, d)) (c :: rest) @ pairs rest
  in
  List.filter (fun (a, b) -> not (clashes a b)) (pairs sch.classes)

(* ------------------------------------------------------------------ *)
(* Ample-set construction.                                             *)

(* [eligible] decides whether firing [a] alone at [s] is a valid ample
   set, given the full enabled list.  The conditions (DESIGN.md §11):

   C2 (invisibility): [a]'s class is not visible and its writes miss
   every invariant-read family, so postponing the skipped actions cannot
   hide a property violation.

   C1 (independence): [a] must be independent of every action any other
   full-graph path from [s] can fire before it.  We check [a]'s concrete
   footprint against every co-enabled action's concrete footprint, and
   [a]'s class summary against *every* class summary — covering actions
   that only become enabled later — discharging summary clashes only when
   the clashing family is frozen at [s], or for the self-clash of a
   [serialized] class (backed by a concrete pairwise check against the
   co-enabled same-class offers).

   Persistence: every skipped action must still be proposed after [a]
   fires, which holds for deterministically-proposed classes; the caller
   refuses to reduce at states proposing any [fragile] class (see
   [ample_of]), which doubles as the C3 cycle proviso for the registry's
   automata — see DESIGN.md §11 for the per-entry argument. *)
let eligible sch s ~frozen_fams ~enabled a =
  let cls = sch.class_of a in
  (not (sch.fragile cls))
  && (not (sch.visible cls))
  && (let ws = writes (sch.class_foot cls) in
      not (List.exists (fun f -> List.mem f sch.invariant_reads) ws))
  &&
  let fa = sch.foot s a in
  List.for_all
    (fun b -> b == a || clash fa (sch.foot s b) = None)
    enabled
  && List.for_all
       (fun other ->
         match clash (sch.class_foot cls) (sch.class_foot other) with
         | None -> true
         | Some (_, eb) ->
             List.mem eb.fam frozen_fams
             || (String.equal other cls && sch.serialized cls))
       sch.classes

(* The explorer-facing ample filter.  Returns [None] (expand fully)
   whenever the enabled set is trivial, any enabled action belongs to a
   fragile class (its proposal would not persist past the ample step),
   or no enabled action passes [eligible]; otherwise fires the first
   eligible action alone.  "First in enabled order" is deterministic
   under the per-state RNG discipline, so reduced runs agree at every
   job count. *)
let ample_of sch =
  fun s enabled ->
   match enabled with
   | [] | [ _ ] -> None
   | _ ->
       if List.exists (fun a -> sch.fragile (sch.class_of a)) enabled then None
       else
         let frozen_fams = sch.frozen s in
         match List.find_opt (eligible sch s ~frozen_fams ~enabled) enabled with
         | Some a -> Some [ a ]
         | None -> None

(* ------------------------------------------------------------------ *)
(* Dynamic audits.                                                     *)

type violation =
  | Footprint_violation of { fv_cls : string; fv_fam : string; fv_action : string }
      (* replaying an action changed a family outside its declared writes,
         or its concrete footprint escaped the class summary *)
  | Unsound_certification of { uc_a : string; uc_b : string; uc_detail : string }
      (* a statically-certified independent pair failed the swap-replay *)

type audit_report = {
  aud_steps : int;  (* steps write-conformance-checked *)
  aud_pairs : int;  (* independent co-enabled pairs swap-replayed *)
  aud_joined : int;  (* pairs that needed the bounded joinability probe *)
  aud_violations : violation list;
}

let summary_covers summary e =
  List.exists
    (fun se ->
      String.equal se.fam e.fam && se.kind = e.kind && inst_overlap se e)
    summary

(* Bounded joinability probe: certified-independent pairs whose two
   firing orders do not reach byte-identical states (e.g. two pushes of
   different packet kinds into the same physical FIFO, modelled as
   disjoint per-kind sub-instances) must still reconverge once the
   postponed effects land.  BFS a few steps out from both interleavings
   and require a common state key. *)
let joinable ~key ~candidates ~step ~depth ~cap s1 s2 =
  let expand frontier =
    List.concat_map
      (fun s -> List.map (fun a -> step s a) (candidates s))
      frontier
  in
  let keys_within s =
    let tbl = Hashtbl.create 64 in
    let rec go frontier d =
      if d > depth || Hashtbl.length tbl > cap then ()
      else
        let fresh =
          List.filter
            (fun s ->
              let k = key s in
              if Hashtbl.mem tbl k then false
              else (
                Hashtbl.add tbl k ();
                true))
            frontier
        in
        if fresh <> [] then go (expand fresh) (d + 1)
    in
    go [ s ] 0;
    tbl
  in
  let k1 = keys_within s1 and k2 = keys_within s2 in
  Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem k2 k) k1 false

(* Audit budgets: steps replayed for write conformance, co-enabled pairs
   swap-replayed. *)
let max_steps = 2000
let max_pairs = 2000

let audit (type s a) (sch : (s, a) schema) ~(step : s -> a -> s)
    ~(enabled : s -> a -> bool) ~(candidates : s -> a list) ~(key : s -> string)
    ~(pp_action : Format.formatter -> a -> unit)
    ~(samples : (s * a list) list) () =
  let steps = ref 0 and pairs = ref 0 and joined = ref 0 in
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let act_str a = Format.asprintf "%a" pp_action a in
  (* 1. write conformance + summary coverage *)
  List.iter
    (fun (s, acts) ->
      List.iter
        (fun a ->
          if !steps < max_steps then (
            incr steps;
            let cls = sch.class_of a in
            let fa = sch.foot s a in
            List.iter
              (fun e ->
                if not (summary_covers (sch.class_foot cls) e) then
                  report
                    (Footprint_violation
                       { fv_cls = cls; fv_fam = e.fam; fv_action = act_str a }))
              fa;
            let ws = writes fa in
            let before = sch.project s and after = sch.project (step s a) in
            List.iter
              (fun (fam, v') ->
                let v = List.assoc_opt fam before in
                if v <> Some v' && not (List.mem fam ws) then
                  report
                    (Footprint_violation
                       { fv_cls = cls; fv_fam = fam; fv_action = act_str a }))
              after))
        acts)
    samples;
  (* 2. commutativity of certified-independent co-enabled pairs *)
  (* Divergence between the two interleavings lives in a shared FIFO
     (e.g. two packet kinds pushed in either order), and draining it is
     what rejoins the states — so probe first along consumer actions
     only (classes whose summary pops something): branching collapses
     from the full candidate fan-out to the handful of non-empty
     queues, which buys a much deeper horizon for the same budget.  The
     blind shallow probe remains as a fallback for joins that need a
     non-consuming step.  Any found common key is a genuine join, so
     restricting the search can only under-approve, never over-approve. *)
  let consuming s =
    List.filter
      (fun a ->
        List.exists
          (fun e -> e.kind = Pop)
          (sch.class_foot (sch.class_of a)))
      (candidates s)
  in
  let probe s1 s2 =
    joinable ~key ~candidates:consuming ~step ~depth:12 ~cap:2000 s1 s2
    || joinable ~key ~candidates ~step ~depth:4 ~cap:600 s1 s2
  in
  List.iter
    (fun (s, acts) ->
      let rec over_pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                if !pairs < max_pairs then
                  let fa = sch.foot s a and fb = sch.foot s b in
                  if clash fa fb = None then (
                    incr pairs;
                    let sa = step s a and sb = step s b in
                    let fail detail =
                      report
                        (Unsound_certification
                           {
                             uc_a = sch.class_of a;
                             uc_b = sch.class_of b;
                             uc_detail =
                               Format.asprintf "%s / %s: %s" (act_str a)
                                 (act_str b) detail;
                           })
                    in
                    if not (enabled sa b) then fail "second action disabled"
                    else if not (enabled sb a) then
                      fail "first action disabled after swap"
                    else
                      let sab = step sa b and sba = step sb a in
                      if not (String.equal (key sab) (key sba)) then
                        (* Equality of the declared per-family projection is
                           the abstraction the schema certifies: e.g. two
                           kinds pushed into one blocked channel differ in
                           raw interleaving but agree in every per-kind
                           subsequence, and the interleaving is exactly what
                           the decomposition abstracts (delivery handlers of
                           distinct kinds write disjoint families, so
                           draining commutes — DESIGN.md §11).  The probe
                           remains for joins that need real steps. *)
                        if sch.project sab = sch.project sba then incr joined
                        else if probe sab sba then incr joined
                        else fail "orders diverge and do not rejoin"))
              rest;
            over_pairs rest
      in
      over_pairs acts)
    samples;
  {
    aud_steps = !steps;
    aud_pairs = !pairs;
    aud_joined = !joined;
    (* distinct samples can re-derive the same violation verbatim *)
    aud_violations = List.sort_uniq compare (List.rev !violations);
  }
