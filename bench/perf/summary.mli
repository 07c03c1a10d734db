(** Order statistics for benchmark samples: the median and quartiles of
    a set of runs, and the tail-percentile rule for per-operation
    timings. *)

type t = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

(** Summary of a non-empty sample; quartiles follow Python's
    [statistics.quantiles(values, n=4)] (the "exclusive" method), so
    the numbers here match a spread computed from the same values in
    Python. Raises [Invalid_argument] on an empty array. *)
val of_array : float array -> t

val median : float array -> float

(** [quartiles xs] is [(q1, q3)] by the exclusive method; a single
    sample is its own quartiles. *)
val quartiles : float array -> float * float

(** Inter-quartile distance as a share of the median ([0] when the
    median is [0]). *)
val rel_spread : t -> float

(** [percentile xs p]: the nearest-rank [p]th percentile (the smallest
    sample with at least [p]% of the samples at or below it). *)
val percentile : float array -> float -> float

(** The highest of 50, 75, 90, 95, 99 and 99.9 that leaves at least ten
    samples strictly above its nearest rank, for [n] samples; 50 when
    none does. A tail percentile with fewer samples beyond it is a
    single outlier, not a distribution. *)
val tail_percentile : int -> float
