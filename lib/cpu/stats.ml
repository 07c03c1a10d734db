(* Simulation statistics: the raw event counts and per-cycle integrals the
   power model and the experiment harness consume. *)

type t = {
  mutable cycles : int;
  mutable committed : int;         (* program instructions retired *)
  mutable dispatched : int;        (* instructions entering the IQ *)
  mutable iqset_dispatch_slots : int; (* dispatch slots eaten by special NOOPs *)
  (* issue queue activity *)
  mutable iq_occupancy_sum : int;      (* valid entries, integrated per cycle *)
  mutable iq_banks_on_sum : int;
  mutable iq_wakeups_gated : int;
  mutable iq_wakeups_nonempty : int;
  mutable iq_wakeups_naive : int;
  mutable iq_dispatch_ram_writes : int;
  mutable iq_dispatch_cam_writes : int;
  mutable iq_issue_reads : int;
  mutable iq_broadcasts : int;
  mutable iq_selects : int;
  mutable iq_scan_entries : int;   (* slots the select scan examined *)
  mutable iq_wakeups_suppressed : int; (* CAM ports suppressed as
                                          predicted-ready (load-delay) *)
  (* register files *)
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable int_rf_banks_on_sum : int;
  mutable int_rf_live_sum : int;
  mutable fp_rf_reads : int;
  mutable fp_rf_writes : int;
  mutable fp_rf_banks_on_sum : int;
  (* frontend *)
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
  (* speculation: wrong-path activity and squash traffic *)
  mutable wp_fetched : int;        (* wrong-path instructions fetched *)
  mutable wp_dispatched : int;     (* ... renamed into IQ/ROB *)
  mutable wp_issued : int;         (* ... issued to functional units *)
  mutable squashes : int;          (* resolution episodes *)
  mutable squashed : int;          (* wrong-path instructions discarded *)
  (* TLBs *)
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  (* stalls *)
  mutable dispatch_stall_policy : int;  (* cycles throttled by the policy *)
  mutable dispatch_stall_iq_full : int;
  mutable dispatch_stall_rob_full : int;
  mutable dispatch_stall_no_reg : int;
  mutable dispatch_stall_lsq_full : int;
}

let create () =
  {
    cycles = 0;
    committed = 0;
    dispatched = 0;
    iqset_dispatch_slots = 0;
    iq_occupancy_sum = 0;
    iq_banks_on_sum = 0;
    iq_wakeups_gated = 0;
    iq_wakeups_nonempty = 0;
    iq_wakeups_naive = 0;
    iq_dispatch_ram_writes = 0;
    iq_dispatch_cam_writes = 0;
    iq_issue_reads = 0;
    iq_broadcasts = 0;
    iq_selects = 0;
    iq_scan_entries = 0;
    iq_wakeups_suppressed = 0;
    int_rf_reads = 0;
    int_rf_writes = 0;
    int_rf_banks_on_sum = 0;
    int_rf_live_sum = 0;
    fp_rf_reads = 0;
    fp_rf_writes = 0;
    fp_rf_banks_on_sum = 0;
    fetched = 0;
    branches = 0;
    mispredicts = 0;
    btb_bubbles = 0;
    il1_misses = 0;
    dl1_misses = 0;
    l2_misses = 0;
    loads = 0;
    stores = 0;
    store_forwards = 0;
    wp_fetched = 0;
    wp_dispatched = 0;
    wp_issued = 0;
    squashes = 0;
    squashed = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    dispatch_stall_policy = 0;
    dispatch_stall_iq_full = 0;
    dispatch_stall_rob_full = 0;
    dispatch_stall_no_reg = 0;
    dispatch_stall_lsq_full = 0;
  }

(* --- per-kind updaters ----------------------------------------------------

   How one counter-bearing event updates the counters, one function per
   event kind, each taking the event's payload unboxed. These are the
   *only* code that accumulates statistics: [absorb] dispatches onto
   them, and the pipeline's no-sink emitters call them directly instead
   of building the event, so both paths share every clause.

   Counter-bearing events carry deltas, so absorbing a stream prefix
   yields correct partial sums; [cycle_end] takes the per-cycle
   integrand snapshot, making the `*_sum` fields true per-cycle
   integrals. *)

module Ev = Sdiq_events.Event

let commit t = t.committed <- t.committed + 1

let cache_miss t (level : Ev.cache_level) =
  match level with
  | Il1 -> t.il1_misses <- t.il1_misses + 1
  | Dl1 -> t.dl1_misses <- t.dl1_misses + 1
  | L2 -> t.l2_misses <- t.l2_misses + 1

let rf_write t (file : Ev.rf_file) =
  match file with
  | Int_rf -> t.int_rf_writes <- t.int_rf_writes + 1
  | Fp_rf -> t.fp_rf_writes <- t.fp_rf_writes + 1

let wakeup t ~tags ~naive ~nonempty ~gated ~suppressed =
  t.iq_broadcasts <- t.iq_broadcasts + tags;
  t.iq_wakeups_naive <- t.iq_wakeups_naive + naive;
  t.iq_wakeups_nonempty <- t.iq_wakeups_nonempty + nonempty;
  t.iq_wakeups_gated <- t.iq_wakeups_gated + gated;
  t.iq_wakeups_suppressed <- t.iq_wakeups_suppressed + suppressed

let select t = t.iq_selects <- t.iq_selects + 1
let select_scan t ~entries = t.iq_scan_entries <- t.iq_scan_entries + entries

let issue t ~store_forward ~wp =
  t.iq_issue_reads <- t.iq_issue_reads + 1;
  if store_forward then t.store_forwards <- t.store_forwards + 1;
  if wp then t.wp_issued <- t.wp_issued + 1

let rf_read t ~ints ~fps =
  t.int_rf_reads <- t.int_rf_reads + ints;
  t.fp_rf_reads <- t.fp_rf_reads + fps

let dispatch t ~(kind : Ev.dispatch_kind) ~cam_writes ~wp =
  t.dispatched <- t.dispatched + 1;
  t.iq_dispatch_ram_writes <- t.iq_dispatch_ram_writes + 1;
  t.iq_dispatch_cam_writes <- t.iq_dispatch_cam_writes + cam_writes;
  if wp then t.wp_dispatched <- t.wp_dispatched + 1;
  match kind with
  | Plain -> ()
  | Load -> t.loads <- t.loads + 1
  | Store -> t.stores <- t.stores + 1

let dispatch_stall t (reason : Ev.stall_reason) =
  match reason with
  | Policy_limit -> t.dispatch_stall_policy <- t.dispatch_stall_policy + 1
  | Iq_full -> t.dispatch_stall_iq_full <- t.dispatch_stall_iq_full + 1
  | Rob_full -> t.dispatch_stall_rob_full <- t.dispatch_stall_rob_full + 1
  | No_reg -> t.dispatch_stall_no_reg <- t.dispatch_stall_no_reg + 1
  | Lsq_full -> t.dispatch_stall_lsq_full <- t.dispatch_stall_lsq_full + 1

let squash t ~squashed =
  t.squashes <- t.squashes + 1;
  t.squashed <- t.squashed + squashed

let tlb_miss t (tlb : Ev.tlb_unit) =
  match tlb with
  | Itlb -> t.itlb_misses <- t.itlb_misses + 1
  | Dtlb -> t.dtlb_misses <- t.dtlb_misses + 1

let annotation_noop t = t.iqset_dispatch_slots <- t.iqset_dispatch_slots + 1
let fetch_seq t = t.fetched <- t.fetched + 1

(* Wrong-path fetches count as frontend activity but never as
   branch-prediction outcomes: the predictor is neither consulted for
   correctness nor trained down the wrong path. *)
let fetch_wp t =
  t.fetched <- t.fetched + 1;
  t.wp_fetched <- t.wp_fetched + 1

(* A correct-path conditional branch or return. *)
let fetch_branch t ~mispredicted ~btb_bubble =
  t.fetched <- t.fetched + 1;
  t.branches <- t.branches + 1;
  if mispredicted then t.mispredicts <- t.mispredicts + 1;
  if btb_bubble then t.btb_bubbles <- t.btb_bubbles + 1

(* A correct-path jump or call. *)
let fetch_jump t ~btb_bubble =
  t.fetched <- t.fetched + 1;
  if btb_bubble then t.btb_bubbles <- t.btb_bubbles + 1

(* [cycles] becomes [cycle + 1]: the pipeline passes the 0-based index
   of the cycle just completed, a per-region bucket its own count. *)
let cycle_end t ~cycle ~iq_occupancy ~iq_banks_on ~int_rf_banks_on
    ~int_rf_live ~fp_rf_banks_on =
  t.cycles <- cycle + 1;
  t.iq_occupancy_sum <- t.iq_occupancy_sum + iq_occupancy;
  t.iq_banks_on_sum <- t.iq_banks_on_sum + iq_banks_on;
  t.int_rf_banks_on_sum <- t.int_rf_banks_on_sum + int_rf_banks_on;
  t.int_rf_live_sum <- t.int_rf_live_sum + int_rf_live;
  t.fp_rf_banks_on_sum <- t.fp_rf_banks_on_sum + fp_rf_banks_on

(* The fold: one event onto its updater. Events with no counter meaning
   (writeback, tag annotations, resize, bank transitions) absorb to
   nothing. *)
let absorb t (ev : Ev.t) =
  match ev with
  | Fetch { wp = true; _ } -> fetch_wp t
  | Fetch { outcome = Sequential; _ } -> fetch_seq t
  | Fetch { outcome = Cond_branch { mispredicted; btb_bubble; _ }; _ } ->
    fetch_branch t ~mispredicted ~btb_bubble
  | Fetch { outcome = Return { mispredicted }; _ } ->
    fetch_branch t ~mispredicted ~btb_bubble:false
  | Fetch { outcome = Jump { btb_bubble } | Call { btb_bubble }; _ } ->
    fetch_jump t ~btb_bubble
  | Annotation { delivery = Noop_slot; _ } -> annotation_noop t
  | Dispatch { kind; cam_writes; wp; _ } -> dispatch t ~kind ~cam_writes ~wp
  | Dispatch_stall reason -> dispatch_stall t reason
  | Wakeup { tags; naive; nonempty; gated; suppressed; woken = _ } ->
    wakeup t ~tags ~naive ~nonempty ~gated ~suppressed
  | Select _ -> select t
  | Select_scan { entries } -> select_scan t ~entries
  | Issue { store_forward; wp; _ } -> issue t ~store_forward ~wp
  | Rf_read { ints; fps } -> rf_read t ~ints ~fps
  | Rf_write { file; _ } -> rf_write t file
  | Commit _ -> commit t
  | Squash { squashed; _ } -> squash t ~squashed
  | Cache_miss { level; _ } -> cache_miss t level
  | Tlb_miss { tlb; _ } -> tlb_miss t tlb
  | Cycle_end
      {
        cycle;
        throttled = _;
        iq_occupancy;
        iq_banks_on;
        int_rf_banks_on;
        int_rf_live;
        fp_rf_banks_on;
      } ->
    cycle_end t ~cycle ~iq_occupancy ~iq_banks_on ~int_rf_banks_on
      ~int_rf_live ~fp_rf_banks_on
  | Annotation { delivery = Tag; _ }
  | Writeback _ | Resize _ | Bank_gated _ | Bank_ungated _ ->
    ()

(* --- the field table -----------------------------------------------------

   Every field with its name, getter and setter, in declaration order:
   the one list [add], [diff] and [to_fields] walk. A field missing here
   would vanish from all three at once; the test suite pins its length
   against the record's size. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("committed", (fun t -> t.committed), fun t v -> t.committed <- v);
    ("dispatched", (fun t -> t.dispatched), fun t v -> t.dispatched <- v);
    ("iqset_dispatch_slots", (fun t -> t.iqset_dispatch_slots),
     fun t v -> t.iqset_dispatch_slots <- v);
    ("iq_occupancy_sum", (fun t -> t.iq_occupancy_sum),
     fun t v -> t.iq_occupancy_sum <- v);
    ("iq_banks_on_sum", (fun t -> t.iq_banks_on_sum),
     fun t v -> t.iq_banks_on_sum <- v);
    ("iq_wakeups_gated", (fun t -> t.iq_wakeups_gated),
     fun t v -> t.iq_wakeups_gated <- v);
    ("iq_wakeups_nonempty", (fun t -> t.iq_wakeups_nonempty),
     fun t v -> t.iq_wakeups_nonempty <- v);
    ("iq_wakeups_naive", (fun t -> t.iq_wakeups_naive),
     fun t v -> t.iq_wakeups_naive <- v);
    ("iq_dispatch_ram_writes", (fun t -> t.iq_dispatch_ram_writes),
     fun t v -> t.iq_dispatch_ram_writes <- v);
    ("iq_dispatch_cam_writes", (fun t -> t.iq_dispatch_cam_writes),
     fun t v -> t.iq_dispatch_cam_writes <- v);
    ("iq_issue_reads", (fun t -> t.iq_issue_reads),
     fun t v -> t.iq_issue_reads <- v);
    ("iq_broadcasts", (fun t -> t.iq_broadcasts),
     fun t v -> t.iq_broadcasts <- v);
    ("iq_selects", (fun t -> t.iq_selects), fun t v -> t.iq_selects <- v);
    ("iq_scan_entries", (fun t -> t.iq_scan_entries),
     fun t v -> t.iq_scan_entries <- v);
    ("iq_wakeups_suppressed", (fun t -> t.iq_wakeups_suppressed),
     fun t v -> t.iq_wakeups_suppressed <- v);
    ("int_rf_reads", (fun t -> t.int_rf_reads), fun t v -> t.int_rf_reads <- v);
    ("int_rf_writes", (fun t -> t.int_rf_writes),
     fun t v -> t.int_rf_writes <- v);
    ("int_rf_banks_on_sum", (fun t -> t.int_rf_banks_on_sum),
     fun t v -> t.int_rf_banks_on_sum <- v);
    ("int_rf_live_sum", (fun t -> t.int_rf_live_sum),
     fun t v -> t.int_rf_live_sum <- v);
    ("fp_rf_reads", (fun t -> t.fp_rf_reads), fun t v -> t.fp_rf_reads <- v);
    ("fp_rf_writes", (fun t -> t.fp_rf_writes), fun t v -> t.fp_rf_writes <- v);
    ("fp_rf_banks_on_sum", (fun t -> t.fp_rf_banks_on_sum),
     fun t v -> t.fp_rf_banks_on_sum <- v);
    ("fetched", (fun t -> t.fetched), fun t v -> t.fetched <- v);
    ("branches", (fun t -> t.branches), fun t v -> t.branches <- v);
    ("mispredicts", (fun t -> t.mispredicts), fun t v -> t.mispredicts <- v);
    ("btb_bubbles", (fun t -> t.btb_bubbles), fun t v -> t.btb_bubbles <- v);
    ("il1_misses", (fun t -> t.il1_misses), fun t v -> t.il1_misses <- v);
    ("dl1_misses", (fun t -> t.dl1_misses), fun t v -> t.dl1_misses <- v);
    ("l2_misses", (fun t -> t.l2_misses), fun t v -> t.l2_misses <- v);
    ("loads", (fun t -> t.loads), fun t v -> t.loads <- v);
    ("stores", (fun t -> t.stores), fun t v -> t.stores <- v);
    ("store_forwards", (fun t -> t.store_forwards),
     fun t v -> t.store_forwards <- v);
    ("wp_fetched", (fun t -> t.wp_fetched), fun t v -> t.wp_fetched <- v);
    ("wp_dispatched", (fun t -> t.wp_dispatched),
     fun t v -> t.wp_dispatched <- v);
    ("wp_issued", (fun t -> t.wp_issued), fun t v -> t.wp_issued <- v);
    ("squashes", (fun t -> t.squashes), fun t v -> t.squashes <- v);
    ("squashed", (fun t -> t.squashed), fun t v -> t.squashed <- v);
    ("itlb_misses", (fun t -> t.itlb_misses), fun t v -> t.itlb_misses <- v);
    ("dtlb_misses", (fun t -> t.dtlb_misses), fun t v -> t.dtlb_misses <- v);
    ("dispatch_stall_policy", (fun t -> t.dispatch_stall_policy),
     fun t v -> t.dispatch_stall_policy <- v);
    ("dispatch_stall_iq_full", (fun t -> t.dispatch_stall_iq_full),
     fun t v -> t.dispatch_stall_iq_full <- v);
    ("dispatch_stall_rob_full", (fun t -> t.dispatch_stall_rob_full),
     fun t v -> t.dispatch_stall_rob_full <- v);
    ("dispatch_stall_no_reg", (fun t -> t.dispatch_stall_no_reg),
     fun t v -> t.dispatch_stall_no_reg <- v);
    ("dispatch_stall_lsq_full", (fun t -> t.dispatch_stall_lsq_full),
     fun t v -> t.dispatch_stall_lsq_full <- v);
  ]

(* Field-wise accumulation: [add a b] folds [b]'s counters into [a].
   Every field is a plain sum, including [cycles] — so summing disjoint
   per-region statistics (where each region's [cycles] counts the
   cycles attributed to it) reproduces a run's global statistics
   exactly. *)
let add a b = List.iter (fun (_, get, set) -> set a (get a + get b)) fields

(* A field-for-field snapshot; the sampling harness diffs snapshots
   taken around each measured window. *)
let copy t = { t with cycles = t.cycles }

(* [diff a b]: the per-field difference [a - b] as a fresh value —
   the counter deltas accumulated between two snapshots. *)
let diff a b =
  let d = create () in
  List.iter (fun (_, get, set) -> set d (get a - get b)) fields;
  d

let to_fields t = List.map (fun (name, get, _) -> (name, get t)) fields

let equal a b = to_fields a = to_fields b

let ipc t =
  if t.cycles = 0 then 0. else float_of_int t.committed /. float_of_int t.cycles

let avg_iq_occupancy t =
  if t.cycles = 0 then 0.
  else float_of_int t.iq_occupancy_sum /. float_of_int t.cycles

let avg_iq_banks_on t =
  if t.cycles = 0 then 0.
  else float_of_int t.iq_banks_on_sum /. float_of_int t.cycles

let avg_int_rf_banks_on t =
  if t.cycles = 0 then 0.
  else float_of_int t.int_rf_banks_on_sum /. float_of_int t.cycles

let avg_int_rf_live t =
  if t.cycles = 0 then 0.
  else float_of_int t.int_rf_live_sum /. float_of_int t.cycles

let mispredict_rate t =
  if t.branches = 0 then 0.
  else float_of_int t.mispredicts /. float_of_int t.branches

let pp ppf t =
  Fmt.pf ppf
    "cycles %d, committed %d, IPC %.3f@ IQ: occ %.1f, banks-on %.2f, \
     wakeups %d (naive %d)@ RF(int): reads %d writes %d banks-on %.2f@ \
     branches %d (mispred %.1f%%), DL1 miss %d, L2 miss %d"
    t.cycles t.committed (ipc t) (avg_iq_occupancy t) (avg_iq_banks_on t)
    t.iq_wakeups_gated t.iq_wakeups_naive t.int_rf_reads t.int_rf_writes
    (avg_int_rf_banks_on t) t.branches
    (100. *. mispredict_rate t)
    t.dl1_misses t.l2_misses
