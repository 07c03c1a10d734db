(* The typed per-cycle event vocabulary of the pipeline.

   Every quantity the paper reports is an integral over these events
   (wakeups, bank-on cycles, occupancy, commits — PAPER.md §5–6), so they
   are the single telemetry surface: the pipeline emits them, and every
   consumer — statistics, power integrals, the invariant checker, the
   differential oracle's commit capture, timelines, JSONL traces — is a
   sink folding over the same stream.

   Design rules:
   - Events carry *facts*, not machine references: an event is still
     meaningful after the cycle that produced it (traces, replays).
   - Counter-bearing events ([Wakeup], [Rf_read]) carry the per-event
     delta, never a running total, so any subset of a stream folds to
     the correct partial sums.
   - [Cycle_end] is emitted last in its cycle and carries the per-cycle
     integrand snapshot (occupancy, powered banks, live registers); the
     per-cycle sums of [Stats] are folds of exactly this event. *)

open Sdiq_isa

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

(* How an annotation reached the policy: a special NOOP consuming a
   dispatch slot (Section 5.2.1) or a zero-cost instruction tag (the
   "Extension" encoding). *)
type delivery = Noop_slot | Tag

type bank_unit = Iq_bank | Int_rf_bank | Fp_rf_bank

type t =
  | Fetch of { dyn : Exec.dyn; outcome : fetch_outcome; wp : bool }
  | Annotation of { pc : int; value : int; delivery : delivery }
  | Dispatch of {
      dyn : Exec.dyn;
      kind : dispatch_kind;
      iq_slot : int;
      rob_idx : int;
      cam_writes : int; (* operand CAM entries written, 0..2 *)
      wp : bool; (* renamed down the wrong path *)
    }
  | Dispatch_stall of stall_reason
  | Wakeup of {
      tags : int; (* result tags broadcast together this cycle *)
      woken : int; (* operands that actually woke *)
      naive : int; (* comparison deltas under the three Figure 8 schemes *)
      nonempty : int;
      gated : int;
      suppressed : int;
        (* waiting operands whose CAM comparison the scheduler policy
           suppressed as predicted-ready (load-delay tracking); they
           still wake on a tag match, but pay no comparison energy *)
    }
  | Select of { rob_idx : int; iq_slot : int }
  | Select_scan of { entries : int }
    (* slots the select logic examined this cycle (holes included);
       the per-entry scan cost is [Params.e_scan_entry] *)
  | Issue of { dyn : Exec.dyn; latency : int; store_forward : bool; wp : bool }
  | Writeback of { dyn : Exec.dyn; rob_idx : int }
  | Rf_read of { ints : int; fps : int } (* one event per issued instr *)
  | Rf_write of { file : rf_file; phys : int }
  | Commit of { dyn : Exec.dyn }
  | Squash of { dyn : Exec.dyn; squashed : int }
    (* mispredicted control resolved: [squashed] wrong-path instructions
       (fetched or renamed) were discarded. Zero when fetch blocked
       instead of speculating. *)
  | Cache_miss of { level : cache_level; addr : int }
  | Tlb_miss of { tlb : tlb_unit; addr : int }
  | Resize of { before : int; after : int } (* IQ active-size change *)
  | Bank_gated of { unit_ : bank_unit; bank : int }
  | Bank_ungated of { unit_ : bank_unit; bank : int }
  | Cycle_end of {
      cycle : int; (* 0-based index of the cycle just completed *)
      throttled : bool; (* dispatch was limited by the (possibly shrunken)
                           queue — the adaptive policy's pressure signal *)
      iq_occupancy : int;
      iq_banks_on : int;
      int_rf_banks_on : int;
      int_rf_live : int;
      fp_rf_banks_on : int;
    }

let num_kinds = 19

let index = function
  | Fetch _ -> 0
  | Annotation _ -> 1
  | Dispatch _ -> 2
  | Dispatch_stall _ -> 3
  | Wakeup _ -> 4
  | Select _ -> 5
  | Issue _ -> 6
  | Writeback _ -> 7
  | Rf_read _ -> 8
  | Rf_write _ -> 9
  | Commit _ -> 10
  | Squash _ -> 11
  | Cache_miss _ -> 12
  | Resize _ -> 13
  | Bank_gated _ -> 14
  | Bank_ungated _ -> 15
  | Cycle_end _ -> 16
  | Tlb_miss _ -> 17
  | Select_scan _ -> 18

let kind_name_of_index = function
  | 0 -> "fetch"
  | 1 -> "annotation"
  | 2 -> "dispatch"
  | 3 -> "dispatch_stall"
  | 4 -> "wakeup"
  | 5 -> "select"
  | 6 -> "issue"
  | 7 -> "writeback"
  | 8 -> "rf_read"
  | 9 -> "rf_write"
  | 10 -> "commit"
  | 11 -> "squash"
  | 12 -> "cache_miss"
  | 13 -> "resize"
  | 14 -> "bank_gated"
  | 15 -> "bank_ungated"
  | 16 -> "cycle_end"
  | 17 -> "tlb_miss"
  | 18 -> "select_scan"
  | _ -> "unknown"

let kind_name ev = kind_name_of_index (index ev)

