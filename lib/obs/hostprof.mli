(** Host-side self-profiling: where does the {e simulator} spend its
    wall clock and allocation?

    The sink timestamps every event and charges the gap since the
    previous event to the pipeline stage that emitted it (the emission
    order within a cycle is fixed — DESIGN.md §11 — so inter-event
    gaps bracket stage work), and samples [Gc.quick_stat] every
    [sample] cycles for allocation and collection deltas. Numbers are
    host-dependent by nature; use them to find simulator hot spots,
    never in golden comparisons. *)

type t

(** [sample] is the Gc sampling period in cycles (default 1000). *)
val create : ?sample:int -> unit -> t

val sink : t -> Sdiq_events.Event.t -> unit

(** Subscribe as ["hostprof"]. *)
val attach : ?sample:int -> Sdiq_cpu.Pipeline.t -> t

val events : t -> int
val cycles : t -> int

(** Stage name to accumulated seconds, fixed stage order
    (fetch, dispatch, issue, writeback, commit, accounting). *)
val stage_seconds : t -> (string * float) list

(** The profile as a fresh registry for OpenMetrics exposition:
    [host_events], [host_cycles] and the Gc collection counts as
    counters; [host_stage_seconds_*], the Gc word deltas and
    [host_gc_top_heap_words] as gauges. *)
val to_metrics : t -> Metrics.t

val to_json : t -> string
val pp : Format.formatter -> t -> unit
