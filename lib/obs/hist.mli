(** Allocation-light integer histograms with exact totals.

    Two bucketings: [Linear { width; buckets }] maps value [v] to
    bucket [v / width] (clamped into the last bucket), and
    [Log2 { buckets }] maps 0 to bucket 0 and [v > 0] to bucket
    [floor(log2 v) + 1] (clamped). Alongside the buckets the histogram
    keeps the exact count, sum, min and max of every observation, so
    aggregate statistics never suffer bucket-quantisation error.

    Histograms of the same shape merge ({!merge}); merging is
    associative and commutative (every component is a sum, min or
    max), which is what lets the domain-pool runner combine per-shard
    histograms into a campaign histogram deterministically. *)

type kind =
  | Linear of { width : int; buckets : int }
  | Log2 of { buckets : int }

type t

(** Raises [Invalid_argument] on a non-positive width or bucket count. *)
val create : kind -> t

val kind : t -> kind

(** Record [n] (default 1) observations of value [v]; negative values
    clamp to 0. *)
val observe : ?n:int -> t -> int -> unit

val count : t -> int

(** Exact sum of every observed value. *)
val sum : t -> int

(** 0 when empty. *)
val min_value : t -> int

val max_value : t -> int

(** Bucket occupancies, in bucket order (a copy). *)
val buckets : t -> int array

(** The bucket a value falls into under [kind]. *)
val bucket_index : kind -> int -> int

(** Pure merge of two same-shaped histograms; raises
    [Invalid_argument] on a shape mismatch. *)
val merge : t -> t -> t

val equal : t -> t -> bool

(** Canonical byte-comparable rendering (shape, buckets and totals). *)
val to_string : t -> string

val to_json : t -> string
