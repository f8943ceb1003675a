(** Delta-debugging minimization of counterexample schedules.

    A schedule is a list of rendered actions ({!Cex.render} form — the
    serialization used in corpus files).  {!replay} resolves each entry
    back to a concrete action against the salted candidate draws of the
    states along the walk ({!Cex.candidate_draws}), plus a pool of every
    action value seen at earlier states, validates the resolved schedule
    by enabledness alone via [Ioa.Exec.replay_prefix], and classifies the
    earliest failure it exhibits.

    {!shrink} minimizes while preserving the failure class: truncation to
    the failing prefix, ddmin chunk removal, a single-action removal sweep
    to fixpoint, an optional per-action simplification pass driven by the
    oracle's [simplify] hook, and a final sweep.  Because validation is by
    enabledness — not by membership in the explorer's RNG-gated candidate
    subgraph — the result can be strictly shorter than the raw BFS
    witness whenever that witness detoured around a closed generator gate
    (e.g. fault injections proposed with probability < 1). *)

type failure =
  | Invariant of string  (** named invariant violated *)
  | Step of string  (** per-step property (oracle's [step_class]) failed *)
  | Deadlock
      (** clean replay ends in a non-quiescent state with no enabled
          explorer candidate *)

val failure_to_string : failure -> string
(** ["invariant:<name>"], ["step:<class>"] or ["deadlock"] — the form
    stored in {!Cex.t.violation}. *)

val failure_of_string : string -> (failure, string) result
val equal_failure : failure -> failure -> bool
val pp_failure : Format.formatter -> failure -> unit

(** Everything needed to replay and classify a schedule for one subject.
    [seed] must be the explorer seed the counterexample was found under —
    resolution re-derives the per-state candidate draws from it. *)
type ('s, 'a) oracle = {
  automaton :
    (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a);
  init : 's;
  key : 's -> string;
  seed : int array;
  invariants : 's Ioa.Invariant.t list;
  check_step : (('s, 'a) Ioa.Exec.step -> (unit, string) result) option;
  step_class : string;
      (** class label for [check_step] failures, e.g. ["refinement"] *)
  quiescent : ('s -> bool) option;
      (** [None] disables deadlock classification *)
  pp_action : Format.formatter -> 'a -> unit;
      (** must render injectively: schedules are matched by this string *)
  simplify : ('a -> 'a list) option;
      (** per-action simpler variants for the simplification pass *)
}

type ('s, 'a) verdict = {
  failure : failure option;  (** earliest failure class exhibited *)
  used : int;
      (** schedule prefix length that already exhibits the failure (0 =
          the initial state itself violates); with no failure, the number
          of actions successfully replayed *)
  error : (int * string) option;
      (** first unresolvable or disabled action, if any — the successful
          prefix is still classified *)
  exec : ('s, 'a) Ioa.Exec.t;  (** the replayed prefix *)
}

val render : ('s, 'a) oracle -> 'a -> string
(** {!Cex.render} with the oracle's printer. *)

val replay : ('s, 'a) oracle -> string list -> ('s, 'a) verdict

val reproduces : ('s, 'a) oracle -> failure -> string list -> bool
(** Does the schedule exhibit exactly this failure class? *)

val shrink : ('s, 'a) oracle -> failure -> string list -> string list
(** [shrink o target strs] minimizes [strs] while preserving [target].
    Returns [strs] unchanged when it does not reproduce [target] to begin
    with.  The simplification pass spends at most 256 oracle
    evaluations. *)

val is_one_minimal : ('s, 'a) oracle -> failure -> string list -> bool
(** The schedule reproduces [target] and no single-action removal does. *)
