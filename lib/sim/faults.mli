(** Fault-injection schedules: phased soak scenarios that alternate calm
    and stormy transport conditions while the connectivity state evolves.

    The module is deliberately transport-agnostic: an {!intensity} is just
    a triple of per-step mutation probabilities which the consumer maps
    onto its own fault machinery (e.g. [Vs_impl.Fault.storm]), so [sim]
    keeps no dependency on any particular protocol stack. *)

(** Per-step probabilities of the three classic adversarial-channel
    mutations.  All in [\[0, 1\]]. *)
type intensity = { drop : float; duplicate : float; reorder : float }

(** Lossless: all probabilities zero. *)
val calm : intensity

(** A harsh default storm (moderate drop, light duplication/reordering). *)
val storm : intensity

val is_calm : intensity -> bool

(** One soak segment: a stable connectivity state driven for [steps]
    scheduler steps under a fixed transport intensity. *)
type phase = {
  label : string;  (** "calm-0", "storm-1", … *)
  intensity : intensity;
  partition : Partition.t;
  steps : int;
}

(** [schedule rng ~universe ~phases ~steps_per_phase] generates an
    alternating calm/{!storm} soak plan of [phases] segments (the first is
    always calm on the fully-connected universe).  Entering a storm may
    split the connectivity state; returning to calm merges components back.
    The plan always ends with a calm segment on a fully-healed partition
    (appended when [phases] would otherwise end stormy) so liveness checks
    can drain the network.  Alive processes are preserved throughout —
    crash/drift churn belongs to {!Churn}, not here.

    Raises [Invalid_argument] on an empty universe, [phases <= 0] or
    [steps_per_phase <= 0]. *)
val schedule :
  Random.State.t ->
  universe:Prelude.Proc.Set.t ->
  phases:int ->
  steps_per_phase:int ->
  phase list

(** [timeline ~phase_seconds plan] maps a plan onto the wall clock for
    live consumers that have no scheduler step counter: the returned
    function gives the phase active at elapsed time [t] seconds — phase
    [k] covers [k·phase_seconds, (k+1)·phase_seconds), and the final
    phase (calm and healed by {!schedule}'s construction) persists past
    the end of the plan.  Raises [Invalid_argument] on a non-positive
    [phase_seconds] or an empty plan. *)
val timeline : phase_seconds:float -> phase list -> float -> phase

val pp_intensity : Format.formatter -> intensity -> unit
val pp_phase : Format.formatter -> phase -> unit
