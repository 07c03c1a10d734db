(** Region-level attribution of the event stream.

    A profiler is one more event sink: it folds every pipeline event
    into the {!Sdiq_cpu.Stats} bucket of the {e currently committed
    region} — the region owning the pc of the last committed
    instruction (the synthetic startup region before the first
    commit). A [Commit] switches the current region first and is then
    attributed to the region being entered.

    Because each event lands in exactly one bucket and the bucket fold
    is {!Sdiq_cpu.Stats.absorb} itself (with per-region [cycles]
    counted as cycles-spent-in-region rather than absorbed as a
    running total), summing the per-region statistics reproduces the
    pipeline's own global statistics {e exactly}, integer for integer
    — and pricing that sum with the linear energy models reproduces
    the power meter float for float. The conservation test pins both.

    Alongside the buckets it keeps a {!Metrics} registry (event/commit
    /cycle counters, occupancy and gated-wakeup histograms, per-window
    commit and wakeup series) whose canonical rendering is
    byte-comparable across shard counts. *)

type t

(** Create a profiler matching [p]'s configuration and subscribe it as
    ["region-profiler"]. The pipeline must be running
    [Region.running_prog map]. [params] prices the per-region energies,
    [window] is the time-series bucket width in cycles (default 1000). *)
val attach :
  ?params:Sdiq_power.Params.t ->
  ?window:int ->
  Region.t ->
  Sdiq_cpu.Pipeline.t ->
  t

val map : t -> Region.t
val metrics : t -> Metrics.t

(** Peak IQ occupancy observed while the region was current. *)
val region_peak : t -> int -> int

(** Fresh sum of every region bucket — equal to the pipeline's own
    statistics for the same run. *)
val total_stats : t -> Sdiq_cpu.Stats.t

type slack_entry = {
  entry_info : Region.info;
  peak : int;  (** peak occupancy observed while current; 0 if never *)
  slack : int;  (** granted window minus peak; > 0 = over-provisioned *)
}

(** Annotation-slack report: every region carrying a granted [Iqset]
    window, largest slack first. Entries with positive [slack] name
    annotations whose window was never filled — candidates for a
    tighter static bound. *)
val slack : t -> slack_entry list

val to_json : t -> string

val csv_header : string

(** One CSV line per region, id order, matching {!csv_header}. *)
val csv_rows : t -> string list

(** Activity table, energy-share order; [top] truncates (default all).
    Regions that never became current are omitted. *)
val pp_table : ?top:int -> Format.formatter -> t -> unit
