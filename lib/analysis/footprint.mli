(** Static action-footprint analysis and ample-set partial-order
    reduction.

    A registry entry may declare a {!schema}: the automaton's state
    decomposed into named {i families} (components), a per-action-class
    static footprint over those families, and a per-action concrete
    footprint.  From the declared footprints this module derives a sound
    may-conflict relation between action classes ({!conflicts}), certifies
    the complement as commuting ({!independent_pairs}), and builds the
    [?ample] filter handed to {!Check.Explorer.run} ({!ample_of}).

    Declared facts are audited dynamically by {!audit}: sampled steps are
    replayed and diffed family-by-family against the declared write set,
    and certified-independent co-enabled pairs are swap-replayed —
    requiring key equality, per-family projection agreement, or
    joinability within a bounded probe.  Violations surface as analyzer
    findings and fail the [@lint] alias. *)

(** Effect kinds over one instance of one family.  The commutation matrix
    ({!kinds_commute}) is conservative: unlisted combinations clash. *)
type kind =
  | Read
  | Write
  | Push
  | Pop
  | Append
  | Read_prefix
  | Read_at
  | Insert

val kind_name : kind -> string
val is_read : kind -> bool
val kinds_commute : kind -> kind -> bool

type eff = { fam : string; inst : string; kind : kind }

(** [eff ?inst kind fam] builds one effect; [inst] defaults to ["*"]
    (the whole family). *)
val eff : ?inst:string -> kind -> string -> eff

val pp_eff : Format.formatter -> eff -> unit

(** Effects overlap when either instance is ["*"] or they are equal. *)
val inst_overlap : eff -> eff -> bool

(** Same family, overlapping instances, non-commuting kinds. *)
val conflict : eff -> eff -> bool

(** First clashing effect pair between two footprints. *)
val clash : eff list -> eff list -> (eff * eff) option

(** Families written (any non-read kind) by a footprint, deduplicated. *)
val writes : eff list -> string list

type ('s, 'a) schema = {
  components : (string * string) list;
  class_of : 'a -> string;
  classes : string list;
  class_foot : string -> eff list;
  foot : 's -> 'a -> eff list;
  fragile : string -> bool;
  visible : string -> bool;
  serialized : string -> bool;
  invariant_reads : string list;
  frozen : 's -> string list;
  project : 's -> (string * string) list;
}

type conflict_entry = {
  ce_a : string;
  ce_b : string;
  ce_eff_a : eff;
  ce_eff_b : eff;
}

(** Static may-conflict relation over unordered class pairs (including
    self-pairs), with the first clashing effect pair as witness. *)
val conflicts : ('s, 'a) schema -> conflict_entry list

(** Unordered class pairs whose summaries show no clash — certified to
    commute, subject to the dynamic audit. *)
val independent_pairs : ('s, 'a) schema -> (string * string) list

(** Whether firing [a] alone at [s] is a valid singleton ample set.
    Exposed for tests; {!ample_of} is the explorer-facing wrapper. *)
val eligible :
  ('s, 'a) schema -> 's -> frozen_fams:string list -> enabled:'a list -> 'a -> bool

(** The [?ample] filter for {!Check.Explorer.run}: [None] (full
    expansion) at trivial states, at states proposing any fragile class,
    and when no enabled action is eligible; otherwise the first eligible
    action alone.  Deterministic under the per-state RNG discipline. *)
val ample_of : ('s, 'a) schema -> 's -> 'a list -> 'a list option

(** The bounded joinability probe used by {!audit}: BFS [depth] steps out
    from both interleavings (capped at [cap] distinct states per side) and
    succeed on any common state key.  Exposed for tests. *)
val joinable :
  key:('s -> string) ->
  candidates:('s -> 'a list) ->
  step:('s -> 'a -> 's) ->
  depth:int ->
  cap:int ->
  's ->
  's ->
  bool

type violation =
  | Footprint_violation of { fv_cls : string; fv_fam : string; fv_action : string }
  | Unsound_certification of { uc_a : string; uc_b : string; uc_detail : string }

type audit_report = {
  aud_steps : int;
  aud_pairs : int;
  aud_joined : int;
  aud_violations : violation list;
}

(** Replay-based spot-check of the declared footprints over sampled
    observed states: write-conformance (a step may only change families
    in its declared write set, and concrete footprints must be covered by
    the class summary) and commutativity of certified-independent
    co-enabled pairs (swap-replay).  A swap whose two orders are not
    byte-identical passes if the states agree in the declared per-family
    projection — the decomposition's abstraction, e.g. cross-kind
    interleaving inside one FIFO — or if a bounded joinability probe
    finds a common successor (consumer-guided deep pass first, then a
    blind shallow sweep).  [candidates] must be the deterministic
    enabled-candidate function used by the analyzer's per-state RNG
    discipline.  At most 2,000 steps and 2,000 pairs are replayed. *)
val audit :
  ('s, 'a) schema ->
  step:('s -> 'a -> 's) ->
  enabled:('s -> 'a -> bool) ->
  candidates:('s -> 'a list) ->
  key:('s -> string) ->
  pp_action:(Format.formatter -> 'a -> unit) ->
  samples:('s * 'a list) list ->
  unit ->
  audit_report
