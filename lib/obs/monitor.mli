(** Online trace monitors: incremental checkers over the live event
    stream, Derecho-style (see PAPERS.md, "Specification and Runtime
    Checking of Derecho").

    A {!rule} consumes one {!Trace.event} at a time, keeps whatever
    incremental state it needs in its closure, and returns [Some reason]
    on the event that completes a violation — so defects are flagged
    while the run is in flight, not by a post-mortem log scan.  A rule
    latches after its first violation (a stream past a broken prefix
    proves nothing further).  Wrap a monitor as a {!Trace.sink} to check
    any instrumented run online. *)

type violation = { rule : string; at_seq : int; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type rule

(** [rule ~name check]: [check] returns [Some reason] on the violating
    event.  State lives in [check]'s closure — build a fresh rule per
    monitored stream. *)
val rule : name:string -> (Trace.event -> string option) -> rule

type t

val create : rule list -> t

(** Feed one event; returns the violations this event completed (empty
    for a clean event).  Thread-safe (one mutex per monitor); rule
    closures themselves run under that mutex and need no locking. *)
val feed : t -> Trace.event -> violation list

(** All violations so far, oldest first. *)
val violations : t -> violation list

val ok : t -> bool
val events_seen : t -> int

(** The monitor as a sink: every event emitted through it is fed to the
    rules; each fresh violation is additionally emitted on [out] as a
    ["violation"] point (component ["obs.monitor"]) carrying the rule
    name, the triggering event's seq and the reason.  [out] must not be
    this same sink (the per-sink mutex is not reentrant), e.g. pass the
    run's JSONL sink. *)
val sink : ?out:Trace.sink -> t -> Trace.sink

(** {2 Built-in rules}

    Each constructor returns a fresh stateful rule over the
    [vs.engine] / [check.explorer] event vocabulary. *)

(** No (receiver, view, sender, fsn) forward is ever sequenced twice —
    catches the [No_dedup] seeded defect online. *)
val unique_sequencing : unit -> rule

(** Per (process, view), delivered positions walk 1, 2, 3, … *)
val contiguous_delivery : unit -> rule

(** All members agree on the (origin, payload) at each position of a
    view's total order. *)
val prefix_consistent : unit -> rule

(** A named integer payload key on events of [component] never
    decreases — the generic monotone-progress shape.  [?name] defaults
    to ["monotone-<component>.<key>"]. *)
val monotone : ?name:string -> component:string -> key:string -> unit -> rule

(** The explorer's states count never decreases
    ([monotone ~component:"check.explorer" ~key:"states"]). *)
val monotone_progress : unit -> rule

val standard : unit -> rule list
