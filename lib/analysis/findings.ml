type finding =
  | Invariant_violation of { invariant : string; state : string }
  | Step_failure of { action : string; detail : string }
  | Key_clash of { state_a : string; state_b : string }
  | Unsound_candidate of { action : string; state : string }
  | Missed_enabled of { action : string; cls : string; state : string }
  | Dead_class of { cls : string }
  | Vacuous_invariant of { invariant : string; states : int }
  | Deadlock of { state : string; depth : int }
  | Footprint_violation of { cls : string; fam : string; action : string }
  | Unsound_certification of { cls_a : string; cls_b : string; detail : string }
  | Symmetry_broken of { perm : string; fam : string; detail : string }
  | Reduction_divergence of { detail : string }

type coverage = {
  cov_invariant : string;
  cov_states : int;
  cov_antecedent : int option;
}

type footprint_summary = {
  fp_classes : int;
  fp_conflicts : (string * string * string) list;
      (* (class, class, witness effect pair) of the may-conflict relation *)
  fp_independent : (string * string) list;
  fp_audit_steps : int;
  fp_audit_pairs : int;
  fp_audit_joined : int;
  fp_equivariant : bool option;
      (* declared symmetry status; [None] when no symmetry spec *)
  fp_sym_checked : int;
  fp_sym_witness : string option;
      (* for declared-NON-equivariant entries: one audited witness that
         symmetry is indeed broken, confirming the declaration *)
}

type reduction = {
  red_full_states : int;
  red_reduced_states : int;
  red_ratio : float;
  red_por_skipped : int;
  red_orbit_collapsed : int;
  red_agrees : bool;  (* reduced and full runs reach the same verdicts *)
}

type report = {
  entry : string;
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
  classes : (string * int) list;
  coverage : coverage list;
  findings : finding list;
  inconclusive : string list;
      (* analyses skipped or weakened by truncation/depth bounds — recorded
         instead of risking false-positive findings *)
  footprint : footprint_summary option;
  reduction : reduction option;
  elapsed_ms : float;
  states_per_sec : float;
}

let kind = function
  | Invariant_violation _ -> "invariant-violation"
  | Step_failure _ -> "step-failure"
  | Key_clash _ -> "key-clash"
  | Unsound_candidate _ -> "unsound-candidate"
  | Missed_enabled _ -> "missed-enabled"
  | Dead_class _ -> "dead-class"
  | Vacuous_invariant _ -> "vacuous-invariant"
  | Deadlock _ -> "deadlock"
  | Footprint_violation _ -> "footprint-violation"
  | Unsound_certification _ -> "unsound-certification"
  | Symmetry_broken _ -> "symmetry-broken"
  | Reduction_divergence _ -> "reduction-divergence"

let pp_finding ppf f =
  match f with
  | Invariant_violation { invariant; state } ->
      Format.fprintf ppf "invariant %S violated at state %s" invariant state
  | Step_failure { action; detail } ->
      Format.fprintf ppf "step property failed on %s: %s" action detail
  | Key_clash { state_a; state_b } ->
      Format.fprintf ppf
        "state key not injective: distinct states share a key@ (%s@ vs %s)"
        state_a state_b
  | Unsound_candidate { action; state } ->
      Format.fprintf ppf "candidate %s proposed but not enabled at %s" action
        state
  | Missed_enabled { action; cls; state } ->
      Format.fprintf ppf
        "action %s (class %s) enabled but never proposed at %s" action cls
        state
  | Dead_class { cls } ->
      Format.fprintf ppf "action class %S never fired" cls
  | Vacuous_invariant { invariant; states } ->
      Format.fprintf ppf
        "invariant %S passed vacuously: antecedent held in 0 of %d states"
        invariant states
  | Deadlock { state; depth } ->
      Format.fprintf ppf "non-quiescent deadlock at depth %d: %s" depth state
  | Footprint_violation { cls; fam; action } ->
      Format.fprintf ppf
        "declared footprint of class %S missed family %S (action %s)" cls fam
        action
  | Unsound_certification { cls_a; cls_b; detail } ->
      Format.fprintf ppf
        "classes %S and %S certified independent but fail swap-replay: %s"
        cls_a cls_b detail
  | Symmetry_broken { perm; fam; detail } ->
      Format.fprintf ppf
        "declared-equivariant entry breaks symmetry under [%s]%s: %s" perm
        (if fam = "" then "" else Printf.sprintf " in family %S" fam)
        detail
  | Reduction_divergence { detail } ->
      Format.fprintf ppf "reduced exploration diverged from full: %s" detail

let pp_coverage ppf c =
  match c.cov_antecedent with
  | None ->
      Format.fprintf ppf "%-55s %6d states" c.cov_invariant c.cov_states
  | Some n ->
      Format.fprintf ppf "%-55s %6d states, antecedent in %d" c.cov_invariant
        c.cov_states n

let pp_footprint ppf fp =
  Format.fprintf ppf
    "footprint: %d classes, %d may-conflict pairs, %d certified independent@,"
    fp.fp_classes
    (List.length fp.fp_conflicts)
    (List.length fp.fp_independent);
  List.iter
    (fun (a, b, w) -> Format.fprintf ppf "  conflict %s ~ %s (%s)@," a b w)
    fp.fp_conflicts;
  List.iter
    (fun (a, b) -> Format.fprintf ppf "  independent %s || %s@," a b)
    fp.fp_independent;
  Format.fprintf ppf
    "  audit: %d steps write-checked, %d pairs swap-replayed (%d via join probe)@,"
    fp.fp_audit_steps fp.fp_audit_pairs fp.fp_audit_joined;
  (match fp.fp_equivariant with
  | None -> Format.fprintf ppf "  symmetry: no declaration@,"
  | Some eq ->
      Format.fprintf ppf "  symmetry: declared %s, %d checks replayed@,"
        (if eq then "equivariant" else "non-equivariant (no reduction)")
        fp.fp_sym_checked);
  match fp.fp_sym_witness with
  | None -> ()
  | Some w -> Format.fprintf ppf "  symmetry-breaking witness: %s@," w

let pp_reduction ppf r =
  Format.fprintf ppf
    "reduction: %d states vs %d full (ratio %.3f), %d por-skipped, %d orbit-collapsed, verdicts %s@,"
    r.red_reduced_states r.red_full_states r.red_ratio r.red_por_skipped
    r.red_orbit_collapsed
    (if r.red_agrees then "agree" else "DIVERGE")

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>== %s ==@,%d states, %d transitions, depth %d%s (%.1f ms, %.0f states/s)@,"
    r.entry r.states r.transitions r.depth
    (if r.truncated then " (TRUNCATED: coverage analyses skipped)" else "")
    r.elapsed_ms r.states_per_sec;
  Format.fprintf ppf "action classes:@,";
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %-20s %6d fired@," cls n)
    r.classes;
  if r.coverage <> [] then begin
    Format.fprintf ppf "invariant coverage:@,";
    List.iter (fun c -> Format.fprintf ppf "  %a@," pp_coverage c) r.coverage
  end;
  (match r.footprint with None -> () | Some fp -> pp_footprint ppf fp);
  (match r.reduction with None -> () | Some red -> pp_reduction ppf red);
  if r.inconclusive <> [] then begin
    Format.fprintf ppf "inconclusive (%d):@," (List.length r.inconclusive);
    List.iter (fun s -> Format.fprintf ppf "  %s@," s) r.inconclusive
  end;
  (match r.findings with
  | [] -> Format.fprintf ppf "findings: none@,"
  | fs ->
      Format.fprintf ppf "findings (%d):@," (List.length fs);
      List.iter
        (fun f -> Format.fprintf ppf "  [%s] %a@," (kind f) pp_finding f)
        fs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let str s = Obs.Json.Str s
let opt f = function None -> Obs.Json.Null | Some x -> f x
let class_pair a b = [ ("class_a", str a); ("class_b", str b) ]

let finding_json f =
  let fields =
    match f with
    | Invariant_violation { invariant; state } ->
        [ ("invariant", str invariant); ("state", str state) ]
    | Step_failure { action; detail } ->
        [ ("action", str action); ("detail", str detail) ]
    | Key_clash { state_a; state_b } ->
        [ ("state_a", str state_a); ("state_b", str state_b) ]
    | Unsound_candidate { action; state } ->
        [ ("action", str action); ("state", str state) ]
    | Missed_enabled { action; cls; state } ->
        [ ("action", str action); ("class", str cls); ("state", str state) ]
    | Dead_class { cls } -> [ ("class", str cls) ]
    | Vacuous_invariant { invariant; states } ->
        [ ("invariant", str invariant); ("states", Obs.Json.Int states) ]
    | Deadlock { state; depth } ->
        [ ("state", str state); ("depth", Obs.Json.Int depth) ]
    | Footprint_violation { cls; fam; action } ->
        [ ("class", str cls); ("family", str fam); ("action", str action) ]
    | Unsound_certification { cls_a; cls_b; detail } ->
        class_pair cls_a cls_b @ [ ("detail", str detail) ]
    | Symmetry_broken { perm; fam; detail } ->
        [
          ("permutation", str perm);
          ("family", str fam);
          ("detail", str detail);
        ]
    | Reduction_divergence { detail } -> [ ("detail", str detail) ]
  in
  Obs.Json.Obj (("kind", str (kind f)) :: fields)

let coverage_json c =
  Obs.Json.Obj
    [
      ("invariant", str c.cov_invariant);
      ("states", Obs.Json.Int c.cov_states);
      ("antecedent_held", opt (fun n -> Obs.Json.Int n) c.cov_antecedent);
    ]

let footprint_json fp =
  Obs.Json.Obj
    [
      ("classes", Obs.Json.Int fp.fp_classes);
      ( "conflicts",
        Obs.Json.List
          (List.map
             (fun (a, b, w) ->
               Obs.Json.Obj (class_pair a b @ [ ("witness", str w) ]))
             fp.fp_conflicts) );
      ( "independent",
        Obs.Json.List
          (List.map
             (fun (a, b) -> Obs.Json.Obj (class_pair a b))
             fp.fp_independent) );
      ("audit_steps", Obs.Json.Int fp.fp_audit_steps);
      ("audit_pairs", Obs.Json.Int fp.fp_audit_pairs);
      ("audit_joined", Obs.Json.Int fp.fp_audit_joined);
      ("equivariant", opt (fun b -> Obs.Json.Bool b) fp.fp_equivariant);
      ("symmetry_checks", Obs.Json.Int fp.fp_sym_checked);
      ("symmetry_witness", opt str fp.fp_sym_witness);
    ]

(* Floats keep the report's fixed precision: the value written is the
   rounded one, not the full-precision measurement. *)
let fixed digits x =
  Obs.Json.Float (float_of_string (Printf.sprintf "%.*f" digits x))

let reduction_json r =
  Obs.Json.Obj
    [
      ("full_states", Obs.Json.Int r.red_full_states);
      ("reduced_states", Obs.Json.Int r.red_reduced_states);
      ("reduction_ratio", fixed 4 r.red_ratio);
      ("por_skipped", Obs.Json.Int r.red_por_skipped);
      ("orbit_collapsed", Obs.Json.Int r.red_orbit_collapsed);
      ("verdicts_agree", Obs.Json.Bool r.red_agrees);
    ]

let report_value r =
  Obs.Json.Obj
    [
      ("entry", str r.entry);
      ("states", Obs.Json.Int r.states);
      ("transitions", Obs.Json.Int r.transitions);
      ("depth", Obs.Json.Int r.depth);
      ("truncated", Obs.Json.Bool r.truncated);
      ( "classes",
        Obs.Json.Obj (List.map (fun (cls, n) -> (cls, Obs.Json.Int n)) r.classes)
      );
      ("coverage", Obs.Json.List (List.map coverage_json r.coverage));
      ("findings", Obs.Json.List (List.map finding_json r.findings));
      ("inconclusive", Obs.Json.List (List.map str r.inconclusive));
      ("footprint", opt footprint_json r.footprint);
      ("reduction", opt reduction_json r.reduction);
      ("elapsed_ms", fixed 3 r.elapsed_ms);
      ("states_per_sec", fixed 1 r.states_per_sec);
    ]

let report_json r = Obs.Json.to_string (report_value r)

let reports_json rs =
  let total = List.fold_left (fun n r -> n + List.length r.findings) 0 rs in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("entries", Obs.Json.List (List.map report_value rs));
         ("total_findings", Obs.Json.Int total);
       ])
