(** Serializable counterexamples and explorer path reconstruction.

    When {!Explorer.run} finds a violation it reports the offending state
    (and, since the [violation_step] fix, the transition into it) but not
    how the search got there.  With [~trace:true] the explorer retains a
    per-state predecessor table; {!reconstruct} walks it back from any
    recorded state to the initial state and re-executes the path, yielding
    the full action schedule from init.

    A counterexample value [{entry; seed; actions; violation}] is the
    portable artifact: the registry entry that produced it, the run seed
    (needed to re-derive the per-state candidate draws during resolution),
    the rendered action schedule and the failure class it triggers (the
    {!Shrink.failure} rendering).  Values round-trip through an {!Obs.Json}
    codec and persist as JSONL under [corpus/], one object per line. *)

type t = {
  entry : string;  (** registry entry name, e.g. ["defect-no-dedup"] *)
  seed : int array;  (** explorer run seed the schedule was found under *)
  actions : string list;  (** rendered action schedule, init to failure *)
  violation : string;  (** failure class, {!Shrink.failure_to_string} form *)
  state : string option;
      (** flat-codec wire form of the failure state — hex of the framed
          {!Codec} encoding — when the entry ships a codec; [of_json]
          defaults to [None] for pre-codec corpus lines *)
}

(** Margin-free rendering of one action — schedule entries are matched by
    string equality during resolution, so they must never line-break. *)
val render : (Format.formatter -> 'a -> unit) -> 'a -> string

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

(** Parse one JSONL line. *)
val of_string : string -> (t, string) result

(** [save ~path ts] writes one JSON object per line.  Writes to
    [path ^ ".tmp"] and renames, so readers never observe a torn file. *)
val save : path:string -> t list -> unit

(** [load ~path] reads a JSONL corpus file (blank lines skipped). *)
val load : path:string -> (t list, string) result

(** Number of salted candidate draws used by default during resolution. *)
val default_salts : int

(** [candidate_draws (module A) ~key ~seed ~salts state] is the union of
    the generator's proposals at [state] over [salts] deterministic RNG
    streams.  Salt 0 is the explorer's own per-state draw
    ({!Explorer.candidates}); the extra salts re-roll the generator's
    probabilistic gates so that rarely-proposed actions (fault injections
    below probability 1, paced view changes) surface too.  Deterministic in [(seed, state)]. *)
val candidate_draws :
  (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a) ->
  key:('s -> string) ->
  seed:int array ->
  salts:int ->
  's ->
  'a list

(** [reconstruct (module A) ~key ~trace ~init ~target ()] rebuilds the
    action schedule from [init] to [target] out of an explorer predecessor
    {!Explorer.trace}.  Each hop first tries the recorded enabled-action
    index against the explorer's own candidate draw (exact under the
    per-state RNG discipline, i.e. [state_rng] or [jobs > 1]) and verifies
    the successor by fingerprint; on a miss it searches all enabled salted
    draws for an action landing on the recorded successor — this is the
    fingerprint-guided re-search that makes reconstruction work at
    [jobs:n] and on stream-RNG explorations.  Errors when the chain is
    broken or no candidate reaches a recorded successor. *)
val reconstruct :
  (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a) ->
  key:('s -> string) ->
  ?seed:int array ->
  ?salts:int ->
  trace:Explorer.trace ->
  init:'s ->
  target:'s ->
  unit ->
  ('a list, string) result
