(* Process-id symmetry: permutation actions on states and actions, an
   equivariance audit, and orbit canonicalization for the explorer.

   The paper's automata are parameterised by a finite processor universe
   P; a spec is {i equivariant} when every transition commutes with every
   permutation π of P — enabled(πs, πa) ⇔ enabled(s, a) and
   step(πs, πa) = π(step s a) — and then the reachable graph is a
   disjoint union of isomorphic orbits and it suffices to explore one
   representative per orbit.  Canonicalization picks the representative
   with the least state key, computed by brute force over the |P|!
   permutations (fine for the 2–3 process instances of the registry).

   Not every entry is equivariant: the VS stack's engine elects the
   sequencer of a view as [Proc.Set.min_elt], which distinguishes process
   ids.  Entries declare their status and the audit checks the
   declaration both ways — a declared-equivariant entry that breaks
   symmetry is a finding, and the offending state family is localized by
   diffing a per-family projection. *)

open Prelude

type ('s, 'a) spec = {
  procs : Proc.t list;  (* the universe, ascending *)
  permute : (Proc.t -> Proc.t) -> 's -> 's;
  permute_action : (Proc.t -> Proc.t) -> 'a -> 'a;
  equivariant : bool;
      (* declared: every transition commutes with permutations; audited *)
  deterministic : bool;
      (* candidates are an RNG-free function of the state — required for
         the quotient graph to be well-defined under canonicalization *)
}

(* All permutations of [procs] as functions, identity excluded.  A
   permutation maps procs.(i) to a rearrangement of the same list;
   off-universe ids are left fixed. *)
let permutations procs =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
          l
  in
  let as_fn image =
    let assoc = List.combine procs image in
    fun p -> match List.assoc_opt p assoc with Some q -> q | None -> p
  in
  perms procs
  |> List.filter (fun image -> image <> procs)
  |> List.map as_fn

(* Orbit representative: the state with the least [key] over all
   permutations.  Returns the argument *physically* when the identity
   already wins, so the explorer can count genuine collapses with [!=]
   and idempotence is structural: the representative's orbit has the
   same key set, whose minimum is the representative's own key. *)
let canonicalizer spec ~key =
  let perms = permutations spec.procs in
  fun s ->
    let best, _ =
      List.fold_left
        (fun (bs, bk) pi ->
          let s' = spec.permute pi s in
          let k' = key s' in
          if String.compare k' bk < 0 then (s', k') else (bs, bk))
        (s, key s) perms
    in
    best

type violation = {
  sv_perm : string;  (* rendering of the offending permutation *)
  sv_fam : string;  (* state family where the divergence shows, or "" *)
  sv_detail : string;
}

type audit_report = {
  sym_checked : int;  (* (state, permutation, action) triples replayed *)
  sym_violations : violation list;
}

let perm_name procs pi =
  String.concat ","
    (List.map (fun p -> Printf.sprintf "%d->%d" p (pi p)) procs)

(* Where two states differ, family-wise, under [project]; "" if the
   projections agree (the divergence is outside the declared families). *)
let diff_fam project s1 s2 =
  let p1 = project s1 and p2 = project s2 in
  match
    List.find_opt (fun (fam, v) -> List.assoc_opt fam p2 <> Some v) p1
  with
  | Some (fam, _) -> fam
  | None -> ""

(* Equivariance audit over sampled observed states: for each nontrivial
   permutation π and sampled (s, enabled) —
   - π-enabledness: every enabled action's π-image is enabled at πs;
   - step commutation: key (step πs πa) = key (π (step s a));
   - candidate-set equivariance (deterministic specs): the candidate set
     at πs equals the π-image of the candidate set at s, as key-rendered
     multisets;
   - invariant symmetry: each named predicate agrees on s and πs.
   Violations carry the offending permutation and, for step divergences,
   the state family where the two sides differ.  At most [max_checks]
   (action, permutation) pairs are checked. *)
let max_checks = 4000

let audit (type s a) (spec : (s, a) spec) ~(step : s -> a -> s)
    ~(enabled : s -> a -> bool) ~(candidates : (s -> a list) option)
    ~(key : s -> string) ~(project : s -> (string * string) list)
    ~(pp_action : Format.formatter -> a -> unit)
    ~(checks : (string * (s -> bool)) list) ~(samples : (s * a list) list) () =
  let perms = permutations spec.procs in
  let checked = ref 0 in
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let act_str a = Format.asprintf "%a" pp_action a in
  List.iter
    (fun (s, acts) ->
      List.iter
        (fun pi ->
          if !checked < max_checks then begin
            let name = perm_name spec.procs pi in
            let s_p = spec.permute pi s in
            List.iter
              (fun a ->
                if !checked < max_checks then begin
                  incr checked;
                  let a_p = spec.permute_action pi a in
                  if not (enabled s_p a_p) then
                    report
                      {
                        sv_perm = name;
                        sv_fam = "";
                        sv_detail =
                          Printf.sprintf "π-image of enabled action %s disabled"
                            (act_str a);
                      }
                  else
                    let lhs = step s_p a_p in
                    let rhs = spec.permute pi (step s a) in
                    if not (String.equal (key lhs) (key rhs)) then
                      report
                        {
                          sv_perm = name;
                          sv_fam = diff_fam project lhs rhs;
                          sv_detail =
                            Printf.sprintf "step does not commute on %s"
                              (act_str a);
                        }
                end)
              acts;
            (match candidates with
            | Some cands when spec.deterministic ->
                let render l = List.sort compare (List.map act_str l) in
                let want =
                  render (List.map (spec.permute_action pi) (cands s))
                in
                let got = render (cands s_p) in
                if want <> got then
                  report
                    {
                      sv_perm = name;
                      sv_fam = "";
                      sv_detail = "candidate set is not π-closed";
                    }
            | _ -> ());
            List.iter
              (fun (cname, pred) ->
                if pred s <> pred s_p then
                  report
                    {
                      sv_perm = name;
                      sv_fam = "";
                      sv_detail =
                        Printf.sprintf "predicate %s not symmetric" cname;
                    })
              checks
          end)
        perms)
    samples;
  { sym_checked = !checked; sym_violations = List.rev !violations }
