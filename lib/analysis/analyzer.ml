(* The per-entry cap on reported findings of one kind: analyses keep
   counting past it, but a registry entry with (say) a wrong generator
   would otherwise drown the report in thousands of identical findings. *)
let max_findings_per_kind = 10

(* An accumulator keeping the first [max_findings_per_kind] findings
   added, in order; [add] builds a finding only while there is room. *)
let capped () =
  let found = ref [] and n = ref 0 in
  let add f =
    if !n < max_findings_per_kind then begin
      incr n;
      found := f () :: !found
    end
  in
  (add, fun () -> List.rev !found)

(* Completeness cross-checks cost |observations| × |action universe|
   [enabled] evaluations; beyond this many observations we check a
   deterministic stride sample. *)
let completeness_sample = 4_000

(* Dynamic-audit sample budgets: observed states fed to the footprint
   write-conformance / swap-replay audits and to the equivariance audit.
   Stride-sampled so the audits stay a bounded tail on large runs. *)
let audit_sample = 400
let symmetry_sample = 150

type ('s, 'a) subject = {
  automaton :
    (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a);
  init : 's;
  key : 's -> string;
  equal_state : ('s -> 's -> bool) option;
  invariants : 's Ioa.Invariant.checked list;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
  action_class : 'a -> string;
  all_classes : string list;
  complete_classes : string list;
  exact_candidates : bool;
  quiescent : ('s -> bool) option;
  allowed_dead : string list;
  check_step : (('s, 'a) Ioa.Exec.step -> (unit, string) result) option;
  step_class : string;
  simplify_action : ('a -> 'a list) option;
  layer : string;
  generator : string;
  footprint : ('s, 'a) Footprint.schema option;
  symmetry : ('s, 'a) Symmetry.spec option;
  codec : 's Check.Codec.t option;
  instrumented_step : (Obs.Trace.sink -> 's -> 'a -> 's) option;
}

(* ------------------------------------------------------------------ *)
(* One exploration of a subject                                        *)
(* ------------------------------------------------------------------ *)

type verdict = {
  violation : string option;
  step_failure : bool;
  deadlock : bool;
}

let verdict_label v =
  match v with
  | { violation = Some inv; _ } -> "violation:" ^ inv
  | { step_failure = true; _ } -> "step-failure"
  | { deadlock = true; _ } -> "deadlock"
  | _ -> "clean"

(* Every front door explores through here: the subject's automaton, key,
   invariants, step property and initial state, with the per-state RNG
   forced at every job count — candidate sets become a pure function of
   (seed, state), so the explored graph, and every count and finding
   derived from it, is independent of [jobs].  Callers add only their own
   extras on top.

   The deadlock rule lives here once: an expanded state with no enabled
   candidate that the subject does not declare quiescent (the explorer
   itself has no deadlock notion — such a state simply has no
   successors).  The first [max_findings_per_kind] deadlocked
   observations come back in discovery order: BFS order at jobs:1,
   scheduling order under jobs > 1, where the explorer serializes
   [observe]. *)
let explore (sub : ('s, 'a) subject) ~seed ~max_states ?max_depth ~jobs
    ?observe ?check_key ?ample ?canon ?codec ?mode ?trace ?sink ?metrics
    ?prof () =
  let add_deadlock, deadlocks = capped () in
  let observe =
    match (sub.quiescent, observe) with
    | None, None -> None
    | quiescent, _ ->
        Some
          (fun o ->
            Option.iter (fun f -> f o) observe;
            match quiescent with
            | Some q
              when o.Check.Explorer.obs_enabled = []
                   && not (q o.Check.Explorer.obs_state) ->
                add_deadlock (fun () -> o)
            | _ -> ())
  in
  let outcome =
    Check.Explorer.run sub.automaton ~key:sub.key
      ~invariants:(List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants)
      ~seed ~max_states ?max_depth ~jobs ~state_rng:true ?trace
      ?check_step:sub.check_step ?check_key ?ample ?canon ?codec ?mode
      ?observe ?sink ?metrics ?prof ~init:sub.init ()
  in
  let verdict =
    {
      violation =
        Option.map
          (fun v -> v.Ioa.Invariant.invariant)
          outcome.Check.Explorer.violation;
      step_failure = Option.is_some outcome.Check.Explorer.step_failure;
      deadlock = deadlocks () <> [];
    }
  in
  (outcome, verdict, deadlocks ())

let analyze (type s a) ~name ?(max_states = 20_000) ?max_depth ?(jobs = 1)
    ?(seed = [| 0 |]) ?(footprint = false) ?(reduce = false) ?sink ?metrics
    ?prof (sub : (s, a) subject) =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    sub.automaton
  in
  (* a reduced run is only as trustworthy as the schema it reduces by, so
     [--reduce] always runs the footprint audits too *)
  let footprint = footprint || reduce in
  let t0 = Obs.Metrics.now_ms () in
  let action_str a = Format.asprintf "%a" sub.pp_action a in
  let state_str s = Format.asprintf "@[<h>%a@]" sub.pp_state s in
  let observations = ref [] in
  let n_obs = ref 0 in
  let observe o =
    observations := o :: !observations;
    incr n_obs
  in
  let outcome, verdict, deadlocked =
    explore sub ~seed ~max_states ?max_depth ~jobs ~observe
      ?check_key:sub.equal_state ?sink ?metrics ?prof ()
  in
  let obs = List.rev !observations in
  let stats = outcome.Check.Explorer.stats in
  let truncated = stats.Check.Explorer.truncated in

  (* --- per-class fire counts ------------------------------------- *)
  let fired : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun o ->
      List.iter
        (fun a ->
          let cls = sub.action_class a in
          Hashtbl.replace fired cls (1 + Option.value ~default:0 (Hashtbl.find_opt fired cls)))
        o.Check.Explorer.obs_enabled)
    obs;
  let classes =
    List.map
      (fun cls -> (cls, Option.value ~default:0 (Hashtbl.find_opt fired cls)))
      sub.all_classes
  in

  (* --- invariant coverage / vacuity ------------------------------ *)
  let coverage =
    List.map
      (fun (c : _ Ioa.Invariant.checked) ->
        let held =
          match c.antecedent with
          | None -> None
          | Some ante ->
              Some
                (List.fold_left
                   (fun n o ->
                     if ante o.Check.Explorer.obs_state then n + 1 else n)
                   0 obs)
        in
        {
          Findings.cov_invariant = c.inv.Ioa.Invariant.name;
          cov_states = !n_obs;
          cov_antecedent = held;
        })
      sub.invariants
  in
  (* A bounded exploration cannot support absence claims ("this class is
     dead", "this antecedent never fires"): the witness might live just past
     the cut.  [max_states] sets [truncated]; a [max_depth] cut does not, so
     it is detected from the reached depth.  Either way the would-be
     findings are reported as inconclusive lines instead. *)
  let cut (st : Check.Explorer.stats) =
    st.truncated
    || match max_depth with Some d -> st.depth >= d | None -> false
  in
  let limited = cut stats in
  let limit_reason =
    if truncated then
      Printf.sprintf "exploration truncated at %d states" stats.states
    else Printf.sprintf "exploration depth-limited at %d" stats.depth
  in
  let vacuous, vacuous_inconclusive =
    if !n_obs = 0 then ([], [])
    else
      let zero =
        List.filter
          (fun (c : Findings.coverage) -> c.cov_antecedent = Some 0)
          coverage
      in
      if limited then
        ( [],
          List.map
            (fun (c : Findings.coverage) ->
              Printf.sprintf
                "vacuity of %S inconclusive: antecedent held in 0 of %d \
                 observed states, but %s"
                c.cov_invariant c.cov_states limit_reason)
            zero )
      else
        ( List.map
            (fun (c : Findings.coverage) ->
              Findings.Vacuous_invariant
                { invariant = c.cov_invariant; states = c.cov_states })
            zero,
          [] )
  in

  (* --- generator soundness: proposed ⊆ enabled (exact entries) ---- *)
  let unsound =
    let add, found = capped () in
    if sub.exact_candidates then
      List.iter
        (fun o ->
          List.iter
            (fun a ->
              if not (A.enabled o.Check.Explorer.obs_state a) then
                add (fun () ->
                    Findings.Unsound_candidate
                      {
                        action = action_str a;
                        state = state_str o.Check.Explorer.obs_state;
                      }))
            o.Check.Explorer.obs_candidates)
        obs;
    found ()
  in

  (* --- generator completeness over the observed action universe --- *)
  (* Universe: every action ever proposed anywhere whose class is
     completeness-checked, deduplicated by rendering.  Any observed state
     in which such an action is enabled but absent from the proposals is a
     missed schedule — the exploration silently never tries it. *)
  let missed =
    if sub.complete_classes = [] then []
    else begin
      let universe : (string, a) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun o ->
          List.iter
            (fun a ->
              if List.mem (sub.action_class a) sub.complete_classes then begin
                let s = action_str a in
                if not (Hashtbl.mem universe s) then Hashtbl.add universe s a
              end)
            o.Check.Explorer.obs_candidates)
        obs;
      let stride = max 1 (!n_obs / completeness_sample) in
      let add, found = capped () in
      List.iteri
        (fun i o ->
          if i mod stride = 0 then begin
            let proposed =
              List.map action_str o.Check.Explorer.obs_candidates
            in
            Hashtbl.iter
              (fun str a ->
                if
                  A.enabled o.Check.Explorer.obs_state a
                  && not (List.mem str proposed)
                then
                  add (fun () ->
                      Findings.Missed_enabled
                        {
                          action = str;
                          cls = sub.action_class a;
                          state = state_str o.Check.Explorer.obs_state;
                        }))
              universe
          end)
        obs;
      found ()
    end
  in

  (* --- dead classes ----------------------------------------------- *)
  let dead, dead_inconclusive =
    let never =
      List.filter_map
        (fun (cls, n) ->
          if n = 0 && not (List.mem cls sub.allowed_dead) then Some cls
          else None)
        classes
    in
    if limited then
      ( [],
        List.map
          (fun cls ->
            Printf.sprintf "dead-class %S inconclusive: never fired, but %s"
              cls limit_reason)
          never )
    else (List.map (fun cls -> Findings.Dead_class { cls }) never, [])
  in

  (* --- deadlocks --------------------------------------------------- *)
  let deadlocks =
    List.map
      (fun o ->
        Findings.Deadlock
          {
            state = state_str o.Check.Explorer.obs_state;
            depth = o.Check.Explorer.obs_depth;
          })
      deadlocked
  in

  (* --- explorer-level findings ------------------------------------ *)
  let explorer_findings =
    List.filter_map Fun.id
      [
        Option.map
          (fun (v : _ Ioa.Invariant.violation) ->
            Findings.Invariant_violation
              { invariant = v.invariant; state = state_str v.state })
          outcome.Check.Explorer.violation;
        Option.map
          (fun ((step : _ Ioa.Exec.step), detail) ->
            Findings.Step_failure { action = action_str step.action; detail })
          outcome.Check.Explorer.step_failure;
        Option.map
          (fun (a, b) ->
            Findings.Key_clash { state_a = state_str a; state_b = state_str b })
          outcome.Check.Explorer.key_clash;
      ]
  in

  (* --- static footprints, audits, symmetry ------------------------- *)
  (* Deterministic enabled-candidate function matching the explorer's
     per-state RNG discipline — what the audits replay against. *)
  let candidates_of s =
    List.filter (A.enabled s)
      (Check.Explorer.candidates sub.automaton ~key:sub.key ~seed s)
  in
  let sample target =
    let stride = max 1 (!n_obs / target) in
    List.filteri (fun i _ -> i mod stride = 0) obs
    |> List.map (fun (o : _ Check.Explorer.observation) ->
           (o.obs_state, o.obs_enabled))
  in
  let cap_per_kind fs =
    let seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
    List.filter
      (fun f ->
        let k = Findings.kind f in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k n;
        n <= max_findings_per_kind)
      fs
  in
  let footprint_summary, footprint_findings =
    if not footprint then (None, [])
    else
      match sub.footprint with
      | None -> (None, [])
      | Some sch ->
          let confl =
            List.map
              (fun (c : Footprint.conflict_entry) ->
                ( c.ce_a,
                  c.ce_b,
                  Format.asprintf "%a vs %a" Footprint.pp_eff c.ce_eff_a
                    Footprint.pp_eff c.ce_eff_b ))
              (Footprint.conflicts sch)
          in
          let indep = Footprint.independent_pairs sch in
          let aud =
            Footprint.audit sch
              ~step:(fun s a -> A.step s a)
              ~enabled:A.enabled ~candidates:candidates_of ~key:sub.key
              ~pp_action:sub.pp_action ~samples:(sample audit_sample) ()
          in
          let fp_findings =
            List.map
              (function
                | Footprint.Footprint_violation { fv_cls; fv_fam; fv_action } ->
                    Findings.Footprint_violation
                      { cls = fv_cls; fam = fv_fam; action = fv_action }
                | Footprint.Unsound_certification { uc_a; uc_b; uc_detail } ->
                    Findings.Unsound_certification
                      { cls_a = uc_a; cls_b = uc_b; detail = uc_detail })
              aud.Footprint.aud_violations
          in
          let sym_checked, sym_witness, sym_findings, equivariant =
            match sub.symmetry with
            | None -> (0, None, [], None)
            | Some spec ->
                let saud =
                  Symmetry.audit spec
                    ~step:(fun s a -> A.step s a)
                    ~enabled:A.enabled ~candidates:(Some candidates_of)
                    ~key:sub.key ~project:sch.Footprint.project
                    ~pp_action:sub.pp_action
                    ~checks:
                      (List.map
                         (fun (c : _ Ioa.Invariant.checked) ->
                           (c.inv.Ioa.Invariant.name, c.inv.Ioa.Invariant.holds))
                         sub.invariants)
                    ~samples:(sample symmetry_sample) ()
                in
                let witness =
                  match (spec.Symmetry.equivariant, saud.Symmetry.sym_violations)
                  with
                  | false, v :: _ ->
                      Some
                        (Printf.sprintf "[%s]%s %s" v.Symmetry.sv_perm
                           (if v.sv_fam = "" then ""
                            else Printf.sprintf " (family %s)" v.sv_fam)
                           v.sv_detail)
                  | _ -> None
                in
                let findings =
                  if spec.Symmetry.equivariant then
                    List.map
                      (fun (v : Symmetry.violation) ->
                        Findings.Symmetry_broken
                          {
                            perm = v.sv_perm;
                            fam = v.sv_fam;
                            detail = v.sv_detail;
                          })
                      saud.Symmetry.sym_violations
                  else []
                in
                ( saud.Symmetry.sym_checked,
                  witness,
                  findings,
                  Some spec.Symmetry.equivariant )
          in
          ( Some
              {
                Findings.fp_classes = List.length sch.Footprint.classes;
                fp_conflicts = confl;
                fp_independent = indep;
                fp_audit_steps = aud.Footprint.aud_steps;
                fp_audit_pairs = aud.Footprint.aud_pairs;
                fp_audit_joined = aud.Footprint.aud_joined;
                fp_equivariant = equivariant;
                fp_sym_checked = sym_checked;
                fp_sym_witness = sym_witness;
              },
            cap_per_kind (fp_findings @ sym_findings) )
  in

  (* --- reduced exploration (opt-in): POR + orbit canonicalization --- *)
  (* The full run above stays authoritative for every analysis; the
     reduced run only has to reach the same verdicts with fewer states.
     Counterexample extraction ({!find_cex}) always runs unreduced —
     canonicalization rewrites successors to orbit representatives, which
     breaks predecessor-trace reconstruction. *)
  let reduction, reduction_findings, reduction_inconclusive =
    if not reduce then (None, [], [])
    else begin
      let ample = Option.map Footprint.ample_of sub.footprint in
      let canon =
        match sub.symmetry with
        | Some spec when spec.Symmetry.equivariant && spec.Symmetry.deterministic
          ->
            Some (Symmetry.canonicalizer spec ~key:sub.key)
        | _ -> None
      in
      match (ample, canon) with
      | None, None ->
          ( Some
              {
                Findings.red_full_states = stats.Check.Explorer.states;
                red_reduced_states = stats.Check.Explorer.states;
                red_ratio = 1.0;
                red_por_skipped = 0;
                red_orbit_collapsed = 0;
                red_agrees = true;
              },
            [],
            [
              "reduction unavailable: no footprint schema and no \
               equivariant+deterministic symmetry declared";
            ] )
      | _ ->
          let red, red_verdict, _ =
            explore sub ~seed ~max_states ?max_depth ~jobs ?ample ?canon
              ?metrics ()
          in
          let rstats = red.Check.Explorer.stats in
          (* all three verdict fields must agree, not just the first
             failure a prioritized label would show *)
          let agrees = verdict = red_verdict in
          let red_limited = cut rstats in
          let describe v =
            Printf.sprintf "violation=%s step-failure=%b deadlock=%b"
              (Option.value ~default:"none" v.violation)
              v.step_failure v.deadlock
          in
          let findings =
            if agrees || limited || red_limited then []
            else
              [
                Findings.Reduction_divergence
                  {
                    detail =
                      Printf.sprintf "full: %s; reduced: %s" (describe verdict)
                        (describe red_verdict);
                  };
              ]
          in
          let inconclusive =
            if (not agrees) && (limited || red_limited) then
              [
                Printf.sprintf
                  "reduction verdict comparison inconclusive (%s): full %s \
                   vs reduced %s"
                  limit_reason (describe verdict) (describe red_verdict);
              ]
            else []
          in
          let ratio =
            if stats.states = 0 then 1.0
            else float_of_int rstats.states /. float_of_int stats.states
          in
          (match metrics with
          | None -> ()
          | Some m -> Obs.Metrics.observe m "analyzer.reduction_ratio" ratio);
          ( Some
              {
                Findings.red_full_states = stats.Check.Explorer.states;
                red_reduced_states = rstats.Check.Explorer.states;
                red_ratio = ratio;
                red_por_skipped = red.Check.Explorer.por_skipped;
                red_orbit_collapsed = red.Check.Explorer.orbit_collapsed;
                red_agrees = agrees;
              },
            findings,
            inconclusive )
    end
  in

  let elapsed_ms = Obs.Metrics.now_ms () -. t0 in
  let states_per_sec =
    if elapsed_ms > 0. then float_of_int stats.states /. (elapsed_ms /. 1000.)
    else 0.
  in
  (match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.observe m "analyzer.elapsed_ms" elapsed_ms);
  {
    Findings.entry = name;
    states = stats.states;
    transitions = stats.transitions;
    depth = stats.depth;
    truncated;
    classes;
    coverage;
    findings =
      explorer_findings @ unsound @ missed @ dead @ vacuous @ deadlocks
      @ footprint_findings @ reduction_findings;
    inconclusive =
      dead_inconclusive @ vacuous_inconclusive @ reduction_inconclusive;
    footprint = footprint_summary;
    reduction;
    elapsed_ms;
    states_per_sec;
  }

(* ------------------------------------------------------------------ *)
(* Raw exploration (codec-fed / throughput-mode runs)                  *)
(* ------------------------------------------------------------------ *)

let explore_raw ?(max_states = 20_000) ?max_depth ?(jobs = 1)
    ?(seed = [| 0 |]) ?(mode = `Deterministic) ?sink ?metrics ?prof sub =
  let t0 = Obs.Metrics.now_ms () in
  let outcome, verdict, _ =
    explore sub ~seed ~max_states ?max_depth ~jobs ?codec:sub.codec ~mode
      ?sink ?metrics ?prof ()
  in
  (outcome.Check.Explorer.stats, verdict, Obs.Metrics.now_ms () -. t0)

(* ------------------------------------------------------------------ *)
(* Counterexample extraction                                           *)
(* ------------------------------------------------------------------ *)

let oracle (sub : ('s, 'a) subject) ~seed =
  {
    Check.Shrink.automaton = sub.automaton;
    init = sub.init;
    key = sub.key;
    seed;
    invariants = List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants;
    check_step = sub.check_step;
    step_class = sub.step_class;
    quiescent = sub.quiescent;
    pp_action = sub.pp_action;
    simplify = sub.simplify_action;
  }

type cex = {
  cex_failure : Check.Shrink.failure;
  cex_raw : string list;
  cex_shrunk : string list;
  cex_state : string option;
}

let find_cex ?(max_states = 20_000) ?max_depth ?(jobs = 1) ?(seed = [| 0 |])
    ?(shrink = true) sub =
  let outcome, _, deadlocked =
    explore sub ~seed ~max_states ?max_depth ~jobs ~trace:true ()
  in
  let trace =
    match outcome.Check.Explorer.trace with
    | Some t -> t
    | None -> assert false (* requested above *)
  in
  let render = Check.Cex.render sub.pp_action in
  (* The target state to walk back to, the failure class it witnesses, and
     any trailing actions past the target (the step-failure's own firing). *)
  let target =
    match
      ( outcome.Check.Explorer.violation,
        outcome.Check.Explorer.step_failure,
        deadlocked )
    with
    | Some v, _, _ ->
        Ok (v.Ioa.Invariant.state, Check.Shrink.Invariant v.invariant, [])
    | None, Some (st, _), _ ->
        Ok
          ( st.Ioa.Exec.pre,
            Check.Shrink.Step sub.step_class,
            [ render st.Ioa.Exec.action ] )
    | None, None, o :: _ ->
        Ok (o.Check.Explorer.obs_state, Check.Shrink.Deadlock, [])
    | None, None, [] -> Error "no failure found in the explored graph"
  in
  match target with
  | Error _ as e -> e
  | Ok (target, failure, suffix) -> (
      (* The flat encoding of the failure state, when the entry ships a
         codec — the wire form corpus entries carry alongside the
         schedule. *)
      let cex_state =
        Option.map
          (fun c -> Check.Codec.to_hex (Check.Codec.encode c target))
          sub.codec
      in
      match
        Check.Cex.reconstruct sub.automaton ~key:sub.key ~seed ~trace
          ~init:sub.init ~target ()
      with
      | Error e -> Error ("path reconstruction failed: " ^ e)
      | Ok path ->
          let raw = List.map render path @ suffix in
          let o = oracle sub ~seed in
          if not (Check.Shrink.reproduces o failure raw) then
            Error "reconstructed schedule does not replay to the failure"
          else
            let shrunk =
              if shrink then Check.Shrink.shrink o failure raw else raw
            in
            Ok
              { cex_failure = failure; cex_raw = raw; cex_shrunk = shrunk;
                cex_state })
