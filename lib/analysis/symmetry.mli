(** Process-id symmetry analysis and orbit canonicalization.

    A registry entry may declare a {!spec}: how permutations of the
    processor universe act on its states and actions, whether the
    automaton is equivariant (every transition commutes with every
    permutation), and whether its candidate generator is an RNG-free
    function of the state.  Equivariant + deterministic entries get
    symmetry reduction: the explorer's [?canon] hook rewrites every
    successor to its orbit representative ({!canonicalizer}) before
    fingerprinting, so only one member of each isomorphism orbit is
    explored.  The declaration is audited by {!audit}; a
    declared-equivariant entry that breaks symmetry is a finding naming
    the offending permutation and state family. *)

open Prelude

type ('s, 'a) spec = {
  procs : Proc.t list;
  permute : (Proc.t -> Proc.t) -> 's -> 's;
  permute_action : (Proc.t -> Proc.t) -> 'a -> 'a;
  equivariant : bool;
  deterministic : bool;
}

(** All nontrivial permutations of the given universe, as functions that
    fix off-universe ids.  |P|! − 1 entries; intended for |P| ≤ 3. *)
val permutations : Proc.t list -> (Proc.t -> Proc.t) list

(** [canonicalizer spec ~key] maps a state to the member of its orbit
    with the least [key].  Idempotent, and returns its argument
    physically when the argument already is the representative — the
    contract of {!Check.Explorer.run}'s [?canon]. *)
val canonicalizer : ('s, 'a) spec -> key:('s -> string) -> 's -> 's

type violation = { sv_perm : string; sv_fam : string; sv_detail : string }

type audit_report = { sym_checked : int; sym_violations : violation list }

(** Replay-based equivariance audit over sampled observed states:
    π-enabledness, step commutation (with the divergent state family
    localized via [project]), candidate-set π-closure (only when the
    spec declares [deterministic]), and symmetry of the named
    predicates in [checks]; at most 4,000 (action, permutation) pairs. *)
val audit :
  ('s, 'a) spec ->
  step:('s -> 'a -> 's) ->
  enabled:('s -> 'a -> bool) ->
  candidates:('s -> 'a list) option ->
  key:('s -> string) ->
  project:('s -> (string * string) list) ->
  pp_action:(Format.formatter -> 'a -> unit) ->
  checks:(string * ('s -> bool)) list ->
  samples:('s * 'a list) list ->
  unit ->
  audit_report
