(** Small statistics toolkit for the experiment harnesses: summary
    statistics, percentiles and fixed-width histograms over float samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** Summary of a sample list.  Raises [Invalid_argument] on the empty
    list. *)
val summarize : float list -> summary

(** Total variant of {!summarize}: [None] on the empty list.  Prefer this
    in reporting paths (e.g. metrics snapshots), where an idle recorder
    must not crash the report. *)
val summarize_opt : float list -> summary option

val mean : float list -> float
val stddev : float list -> float

(** [percentile q xs] with [q ∈ [0, 1]], nearest-rank on the sorted
    sample. *)
val percentile : float -> float list -> float

val pp_summary : Format.formatter -> summary -> unit

(** [histogram ~buckets ~lo ~hi xs]: counts per equal-width bucket;
    out-of-range samples are clamped to the edge buckets. *)
val histogram : buckets:int -> lo:float -> hi:float -> float list -> int array

(** A ratio rendered as a percentage with one decimal. *)
val pct : float -> string

(** Mean of 0/1 outcomes. *)
val rate : bool list -> float
