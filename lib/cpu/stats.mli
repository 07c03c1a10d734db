(** Simulation statistics: raw event counts and per-cycle integrals
    consumed by the power model and the experiment harness. *)

type t = {
  mutable cycles : int;
  mutable committed : int;
  mutable dispatched : int;
  mutable iqset_dispatch_slots : int;
  mutable iq_occupancy_sum : int;
  mutable iq_banks_on_sum : int;
  mutable iq_wakeups_gated : int;
  mutable iq_wakeups_nonempty : int;
  mutable iq_wakeups_naive : int;
  mutable iq_dispatch_ram_writes : int;
  mutable iq_dispatch_cam_writes : int;
  mutable iq_issue_reads : int;
  mutable iq_broadcasts : int;
  mutable iq_selects : int;
  mutable iq_scan_entries : int;
  mutable iq_wakeups_suppressed : int;
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable int_rf_banks_on_sum : int;
  mutable int_rf_live_sum : int;
  mutable fp_rf_reads : int;
  mutable fp_rf_writes : int;
  mutable fp_rf_banks_on_sum : int;
  mutable fetched : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_bubbles : int;
  mutable il1_misses : int;
  mutable dl1_misses : int;
  mutable l2_misses : int;
  mutable loads : int;
  mutable stores : int;
  mutable store_forwards : int;
  mutable wp_fetched : int;
  mutable wp_dispatched : int;
  mutable wp_issued : int;
  mutable squashes : int;
  mutable squashed : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable dispatch_stall_policy : int;
  mutable dispatch_stall_iq_full : int;
  mutable dispatch_stall_rob_full : int;
  mutable dispatch_stall_no_reg : int;
  mutable dispatch_stall_lsq_full : int;
}

val create : unit -> t

(** {1 Per-kind updaters}

    One function per counter-bearing event kind, taking the event's
    payload unboxed: the only code that accumulates statistics. The
    pipeline's no-sink emitters call them directly, {!absorb} dispatches
    onto them, so the two paths cannot drift (DESIGN.md §11.1). *)

val commit : t -> unit
val cache_miss : t -> Sdiq_events.Event.cache_level -> unit
val rf_write : t -> Sdiq_events.Event.rf_file -> unit

val wakeup :
  t -> tags:int -> naive:int -> nonempty:int -> gated:int -> suppressed:int ->
  unit

val select : t -> unit
val select_scan : t -> entries:int -> unit
val issue : t -> store_forward:bool -> wp:bool -> unit
val rf_read : t -> ints:int -> fps:int -> unit

val dispatch :
  t -> kind:Sdiq_events.Event.dispatch_kind -> cam_writes:int -> wp:bool ->
  unit

val dispatch_stall : t -> Sdiq_events.Event.stall_reason -> unit
val squash : t -> squashed:int -> unit
val tlb_miss : t -> Sdiq_events.Event.tlb_unit -> unit

(** A special NOOP ate a dispatch slot (tag delivery counts nothing). *)
val annotation_noop : t -> unit

(** Fetch of a correct-path sequential instruction. *)
val fetch_seq : t -> unit

(** Fetch of any wrong-path instruction: fetch activity only, never a
    branch, mispredict or BTB bubble. *)
val fetch_wp : t -> unit

(** Fetch of a correct-path conditional branch or return (a return
    passes [~btb_bubble:false]). *)
val fetch_branch : t -> mispredicted:bool -> btb_bubble:bool -> unit

(** Fetch of a correct-path jump or call. *)
val fetch_jump : t -> btb_bubble:bool -> unit

(** Fold one cycle's integrand snapshot; sets [cycles] to [cycle + 1].
    The pipeline passes the 0-based index of the cycle just completed; a
    per-region bucket passes its own [cycles] to count the cycles spent
    in it. *)
val cycle_end :
  t ->
  cycle:int ->
  iq_occupancy:int ->
  iq_banks_on:int ->
  int_rf_banks_on:int ->
  int_rf_live:int ->
  fp_rf_banks_on:int ->
  unit

(** [cycles] quiet cycles folded at once, each a repeat of the cycle
    {!cycle_end} just folded (nothing issued, dispatched, fetched or
    committed): [cycles] more cycles, [cycles] times the integrand and
    the [scan_entries] select-scan slots, and [cycles] stalls of reason
    [stall] if set. The pipeline's quiet-cycle skip (DESIGN.md §13.5);
    no event carries it, so only a run with no sink calls it. *)
val quiet_cycles :
  t ->
  cycles:int ->
  iq_occupancy:int ->
  iq_banks_on:int ->
  int_rf_banks_on:int ->
  int_rf_live:int ->
  fp_rf_banks_on:int ->
  scan_entries:int ->
  stall:Sdiq_events.Event.stall_reason option ->
  unit

(** The fold: apply one pipeline event's counter deltas through the
    matching updater above. Any sink can reconstruct the pipeline's
    statistics from the event stream alone (see DESIGN.md §11). *)
val absorb : t -> Sdiq_events.Event.t -> unit

(** [add a b] accumulates [b] into [a], field by field. Every field —
    including [cycles] — is a plain sum, so summing disjoint partial
    statistics (per-region attributions, per-shard folds) reproduces
    the global statistics exactly. *)
val add : t -> t -> unit

(** A field-for-field snapshot (fresh value, original untouched). *)
val copy : t -> t

(** [diff a b]: the field-wise difference [a - b] as a fresh value — the
    counter deltas accumulated between two snapshots. *)
val diff : t -> t -> t

(** Every field with its name, in declaration order, for field-by-field
    divergence reports. [add], [diff] and this walk one field table. *)
val to_fields : t -> (string * int) list

val equal : t -> t -> bool
val ipc : t -> float
val avg_iq_occupancy : t -> float
val avg_iq_banks_on : t -> float
val avg_int_rf_live : t -> float
val mispredict_rate : t -> float
val pp : Format.formatter -> t -> unit
