(** Wall-clock and CPU timers for the benchmark harness.

    The paper's Table 2 reports both CPU and total (elapsed) time; both
    are measured here, though on an all-in-memory substrate they track
    each other closely (EXPERIMENTS.md discusses the deviation). *)

type span = { wall_ms : float; cpu_ms : float }

val zero : span

val add : span -> span -> span

val measure : (unit -> 'a) -> 'a * span
(** Run the thunk once, returning its result and the elapsed span. *)

val median_rank : int -> int
(** 0-based rank of the run {!measure_median} selects after sorting by
    wall-clock time: the upper median, [runs / 2].  [median_rank 1 = 0];
    for even [runs] the later of the two middle runs is chosen (the
    result must be one of the actual runs, so no interpolation). *)

val measure_median : runs:int -> (unit -> 'a) -> 'a * span
(** Run the thunk [runs] times and return the run with the median
    wall-clock time (see {!median_rank}).  Raises [Invalid_argument] if
    [runs <= 0]. *)

(* --- percentiles ----------------------------------------------------------- *)

val percentile : float -> float list -> float
(** Nearest-rank percentile of the samples: the smallest sample with at
    least [p]% of the population at or below it.  Always one of the
    actual samples.  Raises [Invalid_argument] on an empty list or
    [p] outside [0, 100]. *)

val percentiles : float list -> float list -> (float * float) list
(** [(p, percentile p samples)] for each requested [p], sorting the
    samples once. *)

val median : float list -> float
(** [percentile 50.0]. *)

(** Log-bucketed latency histogram: constant memory for any sample
    count, O(1) insert, mergeable across domains.  Eight geometric
    buckets per octave from 1 microsecond, so quantiles are accurate to
    within ~4.5%; the exact maximum is tracked separately and reported
    for the top occupied bucket.  Not thread-safe — keep one per client
    and {!Histogram.merge} at the end. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one latency sample in milliseconds (negative and NaN
      samples clamp to zero). *)

  val merge : into:t -> t -> unit
  (** Fold [src]'s samples into [into]. *)

  val count : t -> int

  val max_ms : t -> float

  val mean_ms : t -> float

  val percentile : t -> float -> float
  (** Nearest-rank quantile over the buckets; returns the bucket's
      geometric midpoint (or the exact maximum for the top occupied
      bucket).  0 on an empty histogram. *)
end
