(** The typed per-cycle event vocabulary of the pipeline.

    Every quantity the paper reports is an integral over these events
    (wakeups, bank-on cycles, occupancy, commits), so they are the single
    telemetry surface: the pipeline emits them and every consumer —
    statistics, power integrals, the invariant checker, commit capture,
    timelines, JSONL traces — is a sink folding over the same stream.

    Events carry facts, not machine references; counter-bearing events
    carry per-event deltas, never running totals; [Cycle_end] is emitted
    last in its cycle and carries the per-cycle integrand snapshot.
    DESIGN.md §11 specifies the ordering guarantees. *)

type fetch_outcome =
  | Sequential
  | Cond_branch of { taken : bool; mispredicted : bool; btb_bubble : bool }
  | Jump of { btb_bubble : bool }
  | Call of { btb_bubble : bool }
  | Return of { mispredicted : bool }

type dispatch_kind = Plain | Load | Store
type stall_reason = Policy_limit | Iq_full | Rob_full | No_reg | Lsq_full
type rf_file = Int_rf | Fp_rf
type cache_level = Il1 | Dl1 | L2
type tlb_unit = Itlb | Dtlb

(** How an annotation reached the policy: a special NOOP consuming a
    dispatch slot (Section 5.2.1) or a zero-cost instruction tag. *)
type delivery = Noop_slot | Tag

type bank_unit = Iq_bank | Int_rf_bank | Fp_rf_bank

type t =
  | Fetch of { dyn : Sdiq_isa.Exec.dyn; outcome : fetch_outcome; wp : bool }
  | Annotation of { pc : int; value : int; delivery : delivery }
  | Dispatch of {
      dyn : Sdiq_isa.Exec.dyn;
      kind : dispatch_kind;
      iq_slot : int;
      rob_idx : int;
      cam_writes : int;  (** operand CAM entries written, 0..2 *)
      wp : bool;  (** renamed down the wrong path *)
    }
  | Dispatch_stall of stall_reason
  | Wakeup of {
      tags : int;  (** result tags broadcast together this cycle *)
      woken : int;  (** operands that actually woke *)
      naive : int;  (** comparison deltas under the three Figure 8 schemes *)
      nonempty : int;
      gated : int;
      suppressed : int;
          (** waiting operands whose CAM comparison the scheduler policy
              suppressed as predicted-ready; they still wake on a tag
              match but pay no comparison energy *)
    }
  | Select of { rob_idx : int; iq_slot : int }
  | Select_scan of { entries : int }
      (** slots the select logic examined this cycle (holes included) *)
  | Issue of {
      dyn : Sdiq_isa.Exec.dyn;
      latency : int;
      store_forward : bool;
      wp : bool;
    }
  | Writeback of { dyn : Sdiq_isa.Exec.dyn; rob_idx : int }
  | Rf_read of { ints : int; fps : int }  (** one event per issued instr *)
  | Rf_write of { file : rf_file; phys : int }
  | Commit of { dyn : Sdiq_isa.Exec.dyn }
  | Squash of { dyn : Sdiq_isa.Exec.dyn; squashed : int }
      (** mispredicted control resolved: [squashed] wrong-path
          instructions were discarded (zero when fetch blocked instead
          of speculating) *)
  | Cache_miss of { level : cache_level; addr : int }
  | Tlb_miss of { tlb : tlb_unit; addr : int }
  | Resize of { before : int; after : int }  (** IQ active-size change *)
  | Bank_gated of { unit_ : bank_unit; bank : int }
  | Bank_ungated of { unit_ : bank_unit; bank : int }
  | Cycle_end of {
      cycle : int;  (** 0-based index of the cycle just completed *)
      throttled : bool;
          (** dispatch was limited by the (possibly shrunken) queue — the
              adaptive policy's pressure signal *)
      iq_occupancy : int;
      iq_banks_on : int;
      int_rf_banks_on : int;
      int_rf_live : int;
      fp_rf_banks_on : int;
    }

(** Number of constructors; [index] is a dense 0-based injection into
    [0, num_kinds), stable across runs (used by {!Counts}). *)
val num_kinds : int

val index : t -> int
val kind_name : t -> string
val kind_name_of_index : int -> string
