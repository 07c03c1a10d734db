(** The out-of-order pipeline over the Table 1 machine: fetch → decode →
    rename/dispatch → issue/execute → writeback → commit, execution-driven
    from the functional oracle.

    Speculative frontend (DESIGN.md §14): a mispredicted control
    instruction opens a wrong-path episode — fetch continues down the
    *predicted* path via a shadow executor (register copies plus a store
    overlay; the oracle never leaves the correct path), and the
    wrong-path instructions rename, dispatch, issue and generate real
    cache/TLB traffic, marked [wp] end to end. When the branch resolves,
    everything younger is squashed: rename map and free lists rolled
    back exactly, IQ tail rewound, LSQ and ROB suffixes popped, the RAS
    restored from its episode snapshot, and a bus-visible [Squash] event
    emitted. Wrong-path work never commits and never trains the
    direction predictor, so the committed stream is identical with
    speculation on or off ([Config.speculative_fetch]).

    The memory system backs this with split 16-entry ITLB/DTLB (probed
    at fetch and at memory issue; a miss stalls for the walk) and an
    age-ordered load/store queue that allocates speculatively at
    dispatch and answers youngest-older-store forwarding queries at load
    issue.

    Cycle phase order matches the paper's Figure 1 timing: results wake
    consumers in their completion cycle and the consumers may issue that
    same cycle; slots freed by issue can be refilled by dispatch in the
    same cycle.

    Telemetry: stages emit typed events ({!Sdiq_events.Event}) instead of
    mutating consumers. The pipeline's statistics are a fold of its own
    event stream ({!Stats.absorb}); every external observer is a sink
    registered with {!subscribe} / {!on_cycle_end} / {!on_commit_sink}.
    [Cycle_end] is always the last event of its cycle; DESIGN.md §11
    specifies the full ordering contract. *)

(** The machine. [private]: code outside this module may read the
    fields but neither writes them nor builds the record; {!create}
    makes one and the stages alone change it. *)
type t = private {
  cfg : Config.t;
  prog : Sdiq_isa.Prog.t;
  exec : Sdiq_isa.Exec.state;
  policy : Policy.t;
  sched : Sched.t;  (** select/wakeup scheduler policy (the third axis) *)
  pred_track : bool;
  scan_limit : int;
      (** the policy's select-scan bound, [max_int] when unbounded *)
  tag_is_load : Bytes.t;
      (** per physical tag: the current producer is a load (written at
          rename; current whenever a waiting operand's bit is read) *)
  il1 : Cache.t;
  dl1 : Cache.t;
  l2 : Cache.t;
  bpred : Branch_pred.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  int_rf : Regfile.t;
  fp_rf : Regfile.t;
  int_map : int array;
  fp_map : int array;
  rob : Rob.t;
  iq : Iq.t;
  lsq : Lsq.t;
  fq_dyns : Sdiq_isa.Exec.dyn array;
      (** fetch-queue ring (capacity [fetch_queue_size]) *)
  fq_ready : int array;
  mutable fq_head : int;
  mutable fq_tail : int;
  mutable fq_count : int;
  mutable wheel : int array array;
      (** completion timing wheel: ROB indices per completion cycle *)
  mutable wheel_len : int array;
  mutable wheel_cycle : int array;
  fu_counts : int array;
  fu_release : int array array;
      (** per-class release cycles of unpipelined unit instances *)
  avail : int array;
  wb_tags : int array;
  cand_slot : int array;
  mutable cycle : int;
  mutable halted : bool;
  mutable fetch_hold : bool;
      (** fetch suspended for sampled simulation; in-flight work flows *)
  mutable fetch_resume_at : int;
  mutable blocked_sn : int;
      (** sequence number fetch is stalled on; [-1] when not stalled *)
  mutable wp_mode : bool;
      (** a wrong-path episode is open (one at a time, anchored at
          [blocked_sn]; a nested wrong-path mispredict only ends
          wrong-path fetch) *)
  mutable wp_pc : int;  (** next wrong-path pc; [-1] = wp fetch idle *)
  mutable wp_next_sn : int;
  wp_exec : Sdiq_isa.Exec.state;
      (** the wrong-path executor's state: an {!Sdiq_isa.Exec.shadow} of
          [exec], forked at episode entry (the oracle never leaves the
          correct path) *)
  mutable pred_taken : bool;
      (** scratch: the direction the frontend predicted for the last
          conditional branch it fetched or fast-forwarded *)
  wp_ras : int array;  (** RAS snapshot, restored at squash *)
  mutable wp_ras_top : int;
  iq_wp : Bytes.t;
  mutable wp_iq_boundary : int;
      (** IQ slot of the episode's first wrong-path dispatch; [-1] while
          none dispatched *)
  squash_mark : Bytes.t;
  mutable sabotage_squash_leak : bool;
  mutable stores_in_flight : int;
  mutable unpipe_busy_until : int;
  stats : Stats.t;
  bus : Sdiq_events.Bus.t;
      (** the sink registry; register through {!subscribe}, never
          [Bus.subscribe] directly (the pipeline caches [bus_on]) *)
  mutable bus_on : bool;
  mutable prev_iq_bank_mask : int;
  mutable prev_int_rf_bank_mask : int;
  mutable prev_fp_rf_bank_mask : int;
}

(** Raised by {!run} after [max_cycles] — a deadlock guard. *)
exception Simulation_limit of string

(** [?sched] overrides [config.sched]. Observers (invariant checker,
    commit capture, meters) register afterwards as sinks: {!subscribe},
    {!on_cycle_end}, {!on_commit_sink}. *)
val create :
  ?config:Config.t ->
  ?policy:Policy.t ->
  ?sched:Sched.t ->
  Sdiq_isa.Prog.t ->
  t

(** Register an event sink; delivery is synchronous, in registration
    order, and a sink's exception propagates out of {!step_cycle} (the
    invariant checker's abort channel). Sinks must not mutate the
    machine. *)
val subscribe : ?name:string -> t -> (Sdiq_events.Event.t -> unit) -> unit

(** Per-cycle observer: runs on every [Cycle_end] — the last event of
    each cycle, after all statistics for the cycle are folded in — with
    the pipeline itself (use {!Debug} accessors to inspect it). *)
val on_cycle_end : ?name:string -> t -> (t -> unit) -> unit

(** Commit observer: one call per committed instruction, commit order. *)
val on_commit_sink : ?name:string -> t -> (Sdiq_isa.Exec.dyn -> unit) -> unit

(** Advance one cycle (commit, writeback, issue, dispatch, fetch, then
    the end-of-cycle accounting fold and [Cycle_end] delivery). Always
    exactly one cycle: it never skips. *)
val step_cycle : t -> unit

(** True once the program has halted and every buffer has drained. *)
val drained : t -> bool

(** Run until the program drains or [max_insns] commit; raises
    {!Simulation_limit} when [cycle] reaches [max_cycles] (default
    200,000,000). With no sink subscribed, a cycle that changed no
    machine state is followed by a jump to the next cycle on which
    something is due, never past [max_cycles], with the skipped cycles'
    statistics added in closed form (DESIGN.md §13.5): the statistics
    and every later cycle are those stepping gives. With any sink, every
    cycle is stepped. *)
val run : ?max_insns:int -> ?max_cycles:int -> t -> Stats.t

(** Hold ([true]) or release ([false]) fetch; in-flight instructions
    keep flowing either way. Sampled simulation holds fetch to drain the
    machine before a fast-forward. *)
val set_fetch_hold : t -> bool -> unit

(** Hold fetch and run until every in-flight instruction has retired
    (fetch stays held). Raises {!Simulation_limit} after [max_cycles]
    (default 1,000,000). Skips quiet cycles as {!run} does, never past
    that deadline. *)
val drain : ?max_cycles:int -> t -> unit

(** Functional fast-forward (SMARTS-style): execute up to [insns]
    oracle instructions with no timing model, applying exactly the
    branch-predictor, BTB, RAS, cache, TLB and policy-annotation updates
    detailed execution would apply, advancing the cycle counter one
    cycle per instruction. No events are emitted and no statistics
    change. Requires a drained machine ({!drain});
    raises [Invalid_argument] otherwise. Returns the instructions
    actually skipped (fewer than [insns] only at program halt). *)
val fast_forward : t -> insns:int -> int

(** Read-only view of the machine for observers (invariant checkers,
    tests): stable accessors instead of record plumbing, and nothing
    that mutates the pipeline. *)
module Debug : sig
  val cfg : t -> Config.t
  val policy : t -> Policy.t
  val sched : t -> Sched.t

  (** Whether physical tag [tag]'s current producer is a load. Only
      maintained under a policy with [Sched.suppresses_predicted] (the
      rename-path write is skipped otherwise); always [false] under
      [oldest_first] and [nskip]. *)
  val tag_is_load : t -> int -> bool

  val iq : t -> Iq.t
  val rob : t -> Rob.t
  val int_rf : t -> Regfile.t
  val fp_rf : t -> Regfile.t

  (** Current architectural→physical mappings (fresh copies). *)
  val int_map : t -> int array

  val fp_map : t -> int array
  val cycle : t -> int
  val halted : t -> bool
  val exec : t -> Sdiq_isa.Exec.state
  val stats : t -> Stats.t
  val bus : t -> Sdiq_events.Bus.t
  val lsq : t -> Lsq.t
  val itlb : t -> Tlb.t
  val dtlb : t -> Tlb.t
  val wp_mode : t -> bool
  val blocked_sn : t -> int

  (** One-line machine-state summary for diagnostics. *)
  val excerpt : t -> string
end

(** Hooks that break the machine on purpose, for tests of the invariant
    checker; nothing else calls them. *)
module For_testing : sig
  (** Make the next squash leave its first wrong-path IQ entry live
      (ROB and rename still rolled back), the stale-entry corruption the
      checker must catch. *)
  val set_sabotage_squash_leak : t -> bool -> unit
end
