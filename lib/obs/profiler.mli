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

(** [create ?params ?cfg ?window map] builds a detached profiler;
    [cfg] shapes the occupancy histogram (defaults to the Table 1
    machine), [params] prices the per-region energies, [window] is the
    time-series bucket width in cycles (default 1000). *)
val create :
  ?params:Sdiq_power.Params.t ->
  ?cfg:Sdiq_cpu.Config.t ->
  ?window:int ->
  Region.t ->
  t

(** The event sink; feed it the full stream of one run. *)
val sink : t -> Sdiq_events.Event.t -> unit

(** Create a profiler matching [p]'s configuration and subscribe it as
    ["region-profiler"]. The pipeline must be running
    [Region.running_prog map]. *)
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

type row = {
  info : Region.info;
  stats : Sdiq_cpu.Stats.t;
  peak_occ : int;
  iq_energy : float;  (** technique-priced IQ energy of this bucket *)
  scan_energy : float;
      (** the select-scan slice of [iq_energy]: slots the picker
          examined while this region was current, priced at
          [Params.e_scan_entry] — the term bounded-scan policies
          ([Sched.Nskip]) shrink *)
  rf_energy : float;  (** gated int-RF energy of this bucket *)
  share_cycles : float;  (** fraction of all cycles, 0..1 *)
  share_wakeups : float;  (** fraction of gated wakeups, 0..1 *)
  share_energy : float;  (** fraction of IQ+RF energy, 0..1 *)
  wp_frac : float;
      (** wrong-path fraction of this region's dispatches, 0..1 —
          how much of the region's queue traffic was speculative work
          later squashed *)
}

(** One row per region, id order (including inactive regions). *)
val rows : t -> row list

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
