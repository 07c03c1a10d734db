(** Campaign-wide telemetry: the user-facing layer over
    {!Sdiq_util.Spanlog}'s per-domain span collection.

    A campaign (or any instrumented run) brackets itself with {!start}
    and {!drain}; in between, the pool, the runner and the sampling
    harness record spans (task execution, per-pair simulation,
    ff/warmup/window phases) and counters (memo hits/misses, steals)
    into domain-local buffers. {!drain} merges them deterministically
    — (domain, sequence) order — and this module renders the result:

    - {!to_chrome_json}: a Chrome trace-event document ("traceEvents"
      of complete [ph:"X"] events, microsecond timestamps relative to
      collector start, one [tid] per domain) that chrome://tracing and
      Perfetto load directly;
    - {!to_metrics}: host-level metric registry — per-span-name counts
      and total seconds, campaign counters, memo hit ratio, per-domain
      busy fractions — ready for {!Metrics.to_openmetrics}.

    Spans observe only the host side; the suite pins that a traced
    campaign's simulation output is [Stats.equal] to an untraced one. *)

module Span = Sdiq_util.Spanlog

(** Install a fresh collector ({!Sdiq_util.Spanlog.start}). *)
val start : unit -> unit

val active : unit -> bool

(** Uninstall and merge ({!Sdiq_util.Spanlog.drain}). *)
val drain : unit -> Span.result option

(** Chrome trace-event JSON of a drained result. *)
val to_chrome_json : Span.result -> string

(** Host-level metrics of a drained result:
    [span_<name>] counters and [span_<name>_seconds] gauges per span
    name, [telemetry_<name>] counters for every drained counter, a
    [memo_hit_ratio] gauge when memo counters are present, and
    [domain<d>_busy_fraction] gauges (task time over worker time) per
    pool domain. When the caller knows the campaign geometry (the
    runner's campaign stats), [~pairs] and [~wall_s] add
    [campaign_pairs], [campaign_wall_seconds] and [campaign_pairs_per_sec]. *)
val to_metrics : ?pairs:int -> ?wall_s:float -> Span.result -> Metrics.t

(** {!to_chrome_json} and a newline to [oc]. *)
val output_chrome : out_channel -> Span.result -> unit

(** [write_chrome file r]: {!output_chrome} to [file]. *)
val write_chrome : string -> Span.result -> unit
