(** A named registry of counters, gauges, {!Hist} histograms and
    {!Series} time series — the streaming-metrics bundle a profiling
    sink accumulates during one run.

    Everything is keyed by name; every listing and rendering is
    name-sorted, so two equal registries render byte-identically
    regardless of insertion order. {!merge} is associative and
    commutative (counters sum, gauges keep the maximum, histograms and
    series merge cell-wise), which makes the domain-pool campaign
    merge independent of shard order: merging per-shard registries in
    key order reproduces the serial registry exactly. *)

type t

val create : unit -> t

(** Add [by] (default 1) to counter [name], creating it at 0. *)
val incr : ?by:int -> t -> string -> unit

(** Current value; 0 when absent. *)
val counter : t -> string -> int

(** Set gauge [name]. Gauges record a level, not a flow: {!merge}
    keeps the maximum of the two sides. *)
val set_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

(** Find-or-create the histogram [name]; raises [Invalid_argument] if
    it exists with a different shape. *)
val hist : t -> string -> Hist.kind -> Hist.t

(** Find-or-create the series [name]; raises [Invalid_argument] if it
    exists with a different window. *)
val series : t -> string -> window:int -> Series.t

(** Pure merge: union of names; counters sum, gauges max, histograms
    and series merge cell-wise. Raises [Invalid_argument] when a
    shared name has mismatched shapes. *)
val merge : t -> t -> t

val equal : t -> t -> bool

(** Canonical name-sorted rendering — byte-comparable across runs and
    shard counts. *)
val to_string : t -> string

val to_json : t -> string

(** Prometheus/OpenMetrics text exposition of the whole registry, ending
    with [# EOF]. Family names are sanitised to [[a-zA-Z0-9_:]] and
    prefixed ["sdiq_"]; counters render as [<name>_total], histograms as
    cumulative [<name>_bucket{le="..."}] lines (integer-inclusive upper
    bounds derived from the {!Hist.kind}) plus [_sum]/[_count], and
    series cells as a gauge family labelled [{cell,window}]. Name-sorted
    like every other rendering, hence byte-comparable across runs.
    Family and sample names are unique in the output even when
    sanitisation or derived suffixes collide (e.g. ["a.b"] vs ["a_b"],
    or a gauge ["x_total"] vs a counter ["x"]): the later family in
    rendering order is disambiguated with [_2], [_3], … *)
val to_openmetrics : t -> string

