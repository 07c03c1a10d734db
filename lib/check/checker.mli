(** Cycle-level invariant checker for {!Sdiq_cpu.Pipeline}.

    Attached as a [Cycle_end] sink ({!attach}, or {!hook} registered
    with {!Sdiq_cpu.Pipeline.on_cycle_end}), it audits the machine after
    every cycle: the software dispatch window ([new_head]..[tail]
    never exceeds [max_new_range]), gated banks hold no entries, the
    per-cycle power integrals ([iq_banks_on_sum], [rf_banks_on_sum],
    [int_rf_live_sum]) match a recount of the live state, the ROB stays
    in program order, the physical register files conserve registers
    across rename/commit/squash, wrong-path entries exist only inside an
    open mispredict episode and are marked exactly (["wp-confined"] /
    ["wp-marking"]), every live IQ and LSQ entry links to an in-flight
    ROB entry and back (["iq-rob-linkage"], ["lsq-rob-linkage"] — the
    squash-leak detectors), the LSQ stays age-ordered, the queue's
    event-driven wakeup state (operand counts, per-slot waiting counts,
    ready set, per-tag waiter lists) matches a recount of its slots
    (["iq-wakeup-state"]), and the wakeup counters equal the comparisons
    the queue actually performed (replayed exactly from the previous
    cycle's operand exposure).

    DESIGN.md §"Invariants the pipeline maintains" lists each invariant
    with the paper section it derives from. *)

type violation = {
  cycle : int;
  invariant : string;  (** which rule tripped, e.g. ["iq-dispatch-window"] *)
  detail : string;     (** what was expected and what was found *)
  excerpt : string;    (** one-line machine-state summary *)
}

exception Invariant_violation of violation

val pp_violation : Format.formatter -> violation -> unit

(** Checker state: one per pipeline run (it tracks per-cycle deltas). *)
type t

val create : unit -> t

(** The per-cycle audit; raises {!Invariant_violation} on the first
    broken invariant. Register [hook c] with
    {!Sdiq_cpu.Pipeline.on_cycle_end}, or use {!attach}. *)
val check : t -> Sdiq_cpu.Pipeline.t -> unit

val hook : t -> Sdiq_cpu.Pipeline.t -> unit

(** The audit as an event sink: runs {!check} on every [Cycle_end].
    Register [sink c p] with {!Sdiq_cpu.Pipeline.subscribe}. *)
val sink : t -> Sdiq_cpu.Pipeline.t -> Sdiq_events.Event.t -> unit

(** Create a fresh checker and subscribe it to the pipeline's bus. *)
val attach : Sdiq_cpu.Pipeline.t -> t

(** A self-contained hook with its own fresh state — the shape
    {!Sdiq_harness.Runner.create}'s [?checker] factory expects; the
    runner registers it with {!Sdiq_cpu.Pipeline.on_cycle_end}. *)
val fresh_hook : unit -> Sdiq_cpu.Pipeline.t -> unit

(** Cycles audited so far. *)
val cycles_checked : t -> int
