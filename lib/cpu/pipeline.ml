(* The out-of-order pipeline: fetch → decode (fetch queue) → rename/dispatch
   → issue/execute → writeback → commit, over the Table 1 machine.

   Execution-driven in the SimpleScalar style: the functional executor
   produces the dynamic stream at fetch. When a mispredicted control
   instruction is detected at fetch time, the frontend does not stall
   (unless [speculative_fetch] is off): it keeps fetching down the
   *predicted* path, synthesising wrong-path instructions with a shadow
   executor that reads the predictor for control flow and runs
   [Exec.datapath] on a shadow of the oracle's state for values.
   Wrong-path work renames, dispatches, issues and completes like any
   other — occupying the IQ, ROB, LSQ and physical registers and heating
   the caches — but never commits: when the branch resolves at
   writeback, everything younger is squashed with an exact rollback of
   the rename map, the free lists and every queue (DESIGN.md §14). The
   functional oracle only ever runs the correct path, so the committed
   stream is identical with speculation on or off; only timing,
   occupancy and activity differ.

   Each frontend rule has one implementation, which every path calls:
   [fetch_stage]'s group loop is the fetch-group rule (correct and wrong
   path, differing only in the instruction source), [emit_fetch]
   classifies every fetched instruction, [Exec.datapath] computes values
   (oracle and wrong path), [predict_train] is the correct path's
   predictor step (detailed fetch and fast-forward), and [l1_access] is
   the cache walk (load issue, store commit, instruction fetch and
   fast-forward).

   Cycle phase order (matters, and matches the paper's Figure 1 timing):
     commit → writeback (wakeup) → issue/select → dispatch → fetch
   so a result wakes its consumers in the cycle it completes and the
   consumers can issue that same cycle; instructions issued this cycle
   free IQ slots that dispatch can refill this cycle; newly fetched
   instructions dispatch only after [decode_depth] cycles.

   Telemetry: the stages mutate no consumer directly. Each stage emits
   typed events ([Sdiq_events.Event]); the pipeline's own statistics are
   a fold of that stream ([Stats.absorb]), and external observers —
   invariant checkers, commit capture, power meters, timelines, JSONL
   traces — subscribe to the same bus. With no sink registered the hot
   loop does not even construct the events: each emission site goes
   through a per-kind emitter that calls the matching [Stats] updater —
   the same one [Stats.absorb] dispatches onto — on the unboxed payload
   (DESIGN.md §13), so a bare simulation allocates nothing on the event
   path. [Cycle_end] is always the last event of its cycle,
   emitted after the policy's end-of-cycle action, so a sink observing it
   sees exactly the machine state a per-cycle checker needs (DESIGN.md
   §11 specifies the ordering contract).

   Hot-loop storage is flat (DESIGN.md §13): the fetch queue is a ring
   over parallel arrays, completions sit in a cycle-indexed timing wheel,
   unpipelined-FU occupancy is a per-class array of release cycles, and
   writeback/issue reuse preallocated scratch arrays across cycles.

   Quiet cycles (DESIGN.md §13.5): with no sink subscribed, [run] and
   [drain] notice a cycle that changed no machine state and jump
   [cycle] to the next cycle on which a timed input comes due (a wheel
   completion, the end of a fetch stall or of a decode, an unpipelined
   unit's release, the close of an adaptive sensing window, or the
   caller's cycle limit), folding the skipped cycles' statistics in
   closed form. A sink turns this off, since it is promised every
   cycle; [step_cycle] is always exactly one cycle. *)

open Sdiq_isa
module Ev = Sdiq_events.Event
module Bus = Sdiq_events.Bus

type t = {
  cfg : Config.t;
  prog : Prog.t;
  exec : Exec.state;
  policy : Policy.t;
  sched : Sched.t;
  pred_track : bool;
      (* [Sched.suppresses_predicted sched], cached: the dispatch path
         only computes predicted-ready bits when the policy uses them *)
  scan_limit : int;
      (* the policy's select-scan slot bound ([max_int] when unbounded):
         cached so the per-cycle select loop takes a plain [min] against
         the active ring instead of a [Sched.scan_bound] dispatch *)
  tag_is_load : Bytes.t;
      (* per physical tag (int then fp, 2*rf_size bytes): the current
         producer is a load, i.e. its latency is unpredictable. Written
         at rename; a waiting operand's producer cannot be freed while
         the operand waits, so the byte is current whenever read. *)
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
  (* fetch queue: ring buffer over parallel arrays (capacity
     [fetch_queue_size]); a free slot holds [Rob.dummy_dyn] *)
  fq_dyns : Exec.dyn array;
  fq_ready : int array; (* cycle at which decode finishes *)
  mutable fq_head : int;
  mutable fq_tail : int;
  mutable fq_count : int;
  (* completion timing wheel: cell [c land (len-1)] holds the ROB indices
     completing at cycle [wheel_cycle], in scheduling order; doubles on
     the (rare) collision of two in-flight completion cycles *)
  mutable wheel : int array array;
  mutable wheel_len : int array;
  mutable wheel_cycle : int array;
  (* functional units: count per class and, for unpipelined ops, the
     release cycle of each unit instance *)
  fu_counts : int array;
  fu_release : int array array;
  (* per-cycle scratch, reused so the hot loop allocates nothing *)
  avail : int array; (* issue slots left per FU class *)
  wb_tags : int array; (* result tags broadcast this cycle *)
  cand_slot : int array; (* ready IQ slots, oldest first *)
  mutable cycle : int;
  mutable halted : bool;
  mutable fetch_hold : bool;
      (* sampled simulation: fetch is held while the machine drains
         before a functional fast-forward; in-flight work keeps flowing *)
  mutable fetch_resume_at : int;
  mutable blocked_sn : int; (* unresolved mispredict sn; -1 = none *)
  (* wrong-path (speculative fetch) episode state. One episode at a time:
     fetch follows the predicted path of the unresolved mispredict at
     [blocked_sn]; a nested wrong-path mispredict just ends wrong-path
     fetch (there is no second level to recover to). *)
  mutable wp_mode : bool;
  mutable wp_pc : int; (* next wrong-path pc; -1 = wp fetch idle *)
  mutable wp_next_sn : int; (* synthetic sns, from [blocked_sn] + 1 *)
  wp_exec : Exec.state;
      (* the wrong-path executor's state: a shadow of [exec], forked at
         episode entry (the oracle never leaves the correct path) *)
  mutable pred_taken : bool;
      (* [predict_train] scratch: the direction it predicted for the
         last conditional branch *)
  wp_ras : int array; (* RAS snapshot, restored at squash *)
  mutable wp_ras_top : int;
  iq_wp : Bytes.t; (* per-IQ-slot wrong-path flag, for pointer rewind *)
  mutable wp_iq_boundary : int;
      (* IQ slot of the episode's first wrong-path dispatch — where
         [tail] rewinds to at squash; -1 while none dispatched *)
  squash_mark : Bytes.t; (* scratch: ROB indices squashed this episode *)
  mutable sabotage_squash_leak : bool;
      (* test hook (Debug): leave one squashed IQ entry live so the
         invariant checker can prove it catches the corruption *)
  mutable stores_in_flight : int; (* stores currently in the ROB *)
  mutable unpipe_busy_until : int; (* all unpipelined units free from here *)
  stats : Stats.t;
  bus : Sdiq_events.Bus.t;
  mutable bus_on : bool;
      (* whether any sink is subscribed, cached: one field read per
         emission site instead of a cross-module call; [subscribe] keeps
         it in sync (all pipeline sinks register through it) *)
  (* previous end-of-cycle powered-bank masks, for gate/ungate events *)
  mutable prev_iq_bank_mask : int;
  mutable prev_int_rf_bank_mask : int;
  mutable prev_fp_rf_bank_mask : int;
}

exception Simulation_limit of string

(* Deliver one event: fold it into the pipeline's own statistics, then
   to external sinks (if any). The absorb-first order is part of the
   sink contract — a [Cycle_end] sink reads fully-updated stats. *)
let emit t ev =
  Stats.absorb t.stats ev;
  if t.bus_on then Bus.emit t.bus ev

(* --- per-kind emitters -------------------------------------------------- *)

(* With no sink subscribed, each emitter calls the matching [Stats]
   updater on the unboxed payload and never constructs the event, so the
   no-sink path is allocation-free; with sinks it builds the event once
   and takes the generic [emit] path, where [Stats.absorb] dispatches
   onto the same updater. *)

let emit_commit t dyn =
  if t.bus_on then emit t (Ev.Commit { dyn }) else Stats.commit t.stats

let emit_cache_miss t level addr =
  if t.bus_on then emit t (Ev.Cache_miss { level; addr })
  else Stats.cache_miss t.stats level

(* [Writeback] absorbs to nothing; it exists only for sinks. *)
let emit_writeback t idx =
  if t.bus_on then
    emit t (Ev.Writeback { dyn = Rob.dyn t.rob idx; rob_idx = idx })

let emit_rf_write t file phys =
  if t.bus_on then emit t (Ev.Rf_write { file; phys })
  else Stats.rf_write t.stats file

let emit_wakeup t ~tags ~woken ~naive ~nonempty ~gated ~suppressed =
  if t.bus_on then
    emit t (Ev.Wakeup { tags; woken; naive; nonempty; gated; suppressed })
  else Stats.wakeup t.stats ~tags ~naive ~nonempty ~gated ~suppressed

let emit_select t ~rob_idx ~iq_slot =
  if t.bus_on then emit t (Ev.Select { rob_idx; iq_slot })
  else Stats.select t.stats

let emit_select_scan t ~entries =
  if t.bus_on then emit t (Ev.Select_scan { entries })
  else Stats.select_scan t.stats ~entries

let emit_issue t dyn ~latency ~store_forward ~wp =
  if t.bus_on then emit t (Ev.Issue { dyn; latency; store_forward; wp })
  else Stats.issue t.stats ~store_forward ~wp

let emit_rf_read t ~ints ~fps =
  if t.bus_on then emit t (Ev.Rf_read { ints; fps })
  else Stats.rf_read t.stats ~ints ~fps

let emit_dispatch t dyn ~kind ~iq_slot ~rob_idx ~cam_writes ~wp =
  if t.bus_on then
    emit t (Ev.Dispatch { dyn; kind; iq_slot; rob_idx; cam_writes; wp })
  else Stats.dispatch t.stats ~kind ~cam_writes ~wp

let emit_dispatch_stall t reason =
  if t.bus_on then emit t (Ev.Dispatch_stall reason)
  else Stats.dispatch_stall t.stats reason

let emit_squash t dyn ~squashed =
  if t.bus_on then emit t (Ev.Squash { dyn; squashed })
  else Stats.squash t.stats ~squashed

let emit_tlb_miss t tlb addr =
  if t.bus_on then emit t (Ev.Tlb_miss { tlb; addr })
  else Stats.tlb_miss t.stats tlb

let emit_annotation_noop t ~pc ~value =
  if t.bus_on then
    emit t (Ev.Annotation { pc; value; delivery = Ev.Noop_slot })
  else Stats.annotation_noop t.stats

(* One emitter for every fetched instruction, either path: the opcode
   picks the outcome. A wrong-path fetch counts as fetch activity but
   never as a branch, mispredict or BTB bubble — the predictor is
   consulted, not trained, off the correct path, so those rates stay
   correct-path-only (wrong-path fetch passes [false] for both flags).
   The no-sink arms are [Stats.absorb]'s for the same event. *)
let emit_fetch t (dyn : Exec.dyn) ~wp ~mispredicted ~btb_bubble =
  if t.bus_on then
    let outcome =
      match dyn.Exec.instr.Instr.op with
      | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge ->
        Ev.Cond_branch { taken = dyn.Exec.taken; mispredicted; btb_bubble }
      | Opcode.Jmp -> Ev.Jump { btb_bubble }
      | Opcode.Call -> Ev.Call { btb_bubble }
      | Opcode.Ret -> Ev.Return { mispredicted }
      | _ -> Ev.Sequential
    in
    emit t (Ev.Fetch { dyn; outcome; wp })
  else if wp then Stats.fetch_wp t.stats
  else
    match dyn.Exec.instr.Instr.op with
    | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge ->
      Stats.fetch_branch t.stats ~mispredicted ~btb_bubble
    | Opcode.Ret -> Stats.fetch_branch t.stats ~mispredicted ~btb_bubble:false
    | Opcode.Jmp | Opcode.Call -> Stats.fetch_jump t.stats ~btb_bubble
    | _ -> Stats.fetch_seq t.stats

(* --- sink registration --------------------------------------------------- *)

let subscribe ?name t fn =
  Bus.subscribe ?name t.bus fn;
  t.bus_on <- true

(* Per-cycle observer: runs on every [Cycle_end], after all statistics
   for the cycle are folded in. The shape the invariant checker wants. *)
let on_cycle_end ?(name = "cycle-observer") t f =
  subscribe ~name t (function Ev.Cycle_end _ -> f t | _ -> ())

(* Commit observer: one call per committed instruction, in commit order. *)
let on_commit_sink ?(name = "commit-observer") t f =
  subscribe ~name t (function Ev.Commit { dyn } -> f dyn | _ -> ())

let create ?(config = Config.default) ?(policy = Policy.unlimited) ?sched prog =
  let sched =
    match sched with Some s -> s | None -> config.Config.sched
  in
  let exec = Exec.create prog in
  let int_rf =
    Regfile.create ~size:config.Config.rf_size
      ~bank_size:config.Config.rf_bank_size
  in
  let fp_rf =
    Regfile.create ~size:config.Config.rf_size
      ~bank_size:config.Config.rf_bank_size
  in
  (* Initial architectural mapping: arch i -> phys i, values ready. *)
  let int_map = Array.init Reg.num_int (fun i -> i) in
  let fp_map = Array.init Reg.num_fp (fun i -> i) in
  for i = 0 to Reg.num_int - 1 do
    Regfile.alloc_exact int_rf i;
    int_rf.Regfile.ready.(i) <- true
  done;
  for i = 0 to Reg.num_fp - 1 do
    Regfile.alloc_exact fp_rf i;
    fp_rf.Regfile.ready.(i) <- true
  done;
  let fu_counts = Array.make Fu.count_classes 0 in
  List.iter
    (fun cls -> fu_counts.(Fu.index cls) <- config.Config.fu_count cls)
    Fu.all;
  (* Wheel span must exceed the longest completion latency in flight;
     [schedule_completion] doubles it if a workload ever proves it
     short. *)
  let wheel_size =
    let bound =
      config.Config.mem_latency + config.Config.l2_hit
      + config.Config.dl1_hit + 64
    in
    let s = ref 64 in
    while !s < bound do
      s := !s * 2
    done;
    !s
  in
  let t =
    {
      cfg = config;
      prog;
      exec;
      policy;
      sched;
      pred_track = Sched.suppresses_predicted sched;
      scan_limit = (match sched with Sched.Nskip n -> n | _ -> max_int);
      tag_is_load = Bytes.make (2 * config.Config.rf_size) '\000';
      il1 =
        Cache.create ~sets:config.Config.il1_sets ~ways:config.Config.il1_ways
          ~line:config.Config.il1_line;
      dl1 =
        Cache.create ~sets:config.Config.dl1_sets ~ways:config.Config.dl1_ways
          ~line:config.Config.dl1_line;
      l2 =
        Cache.create ~sets:config.Config.l2_sets ~ways:config.Config.l2_ways
          ~line:config.Config.l2_line;
      bpred = Branch_pred.create config;
      itlb =
        Tlb.create ~entries:config.Config.itlb_entries
          ~page_size:config.Config.page_size;
      dtlb =
        Tlb.create ~entries:config.Config.dtlb_entries
          ~page_size:config.Config.page_size;
      int_rf;
      fp_rf;
      int_map;
      fp_map;
      rob = Rob.create ~size:config.Config.rob_size;
      iq = Iq.create ~size:config.Config.iq_size
          ~bank_size:config.Config.iq_bank_size
          ~tags:(2 * config.Config.rf_size);
      lsq = Lsq.create ~size:config.Config.lsq_size;
      fq_dyns = Array.make config.Config.fetch_queue_size Rob.dummy_dyn;
      fq_ready = Array.make config.Config.fetch_queue_size 0;
      fq_head = 0;
      fq_tail = 0;
      fq_count = 0;
      wheel = Array.make wheel_size [||];
      wheel_len = Array.make wheel_size 0;
      wheel_cycle = Array.make wheel_size (-1);
      fu_counts;
      fu_release =
        Array.init Fu.count_classes (fun k ->
            Array.make fu_counts.(k) min_int);
      avail = Array.make Fu.count_classes 0;
      wb_tags = Array.make config.Config.rob_size 0;
      cand_slot = Array.make config.Config.iq_size 0;
      cycle = 0;
      halted = false;
      fetch_hold = false;
      fetch_resume_at = 0;
      blocked_sn = -1;
      wp_mode = false;
      wp_pc = -1;
      wp_next_sn = 0;
      wp_exec = Exec.shadow exec;
      pred_taken = false;
      wp_ras = Array.make config.Config.ras_size 0;
      wp_ras_top = 0;
      iq_wp = Bytes.make config.Config.iq_size '\000';
      wp_iq_boundary = -1;
      squash_mark = Bytes.make config.Config.rob_size '\000';
      sabotage_squash_leak = false;
      stores_in_flight = 0;
      unpipe_busy_until = 0;
      stats = Stats.create ();
      bus = Bus.create ();
      bus_on = false;
      prev_iq_bank_mask = 0;
      prev_int_rf_bank_mask = Regfile.banks_on_mask int_rf;
      prev_fp_rf_bank_mask = Regfile.banks_on_mask fp_rf;
    }
  in
  t.iq.Iq.suppress_pred <- t.pred_track;
  t

(* Physical-register tag space: int regs as-is, fp regs offset. *)
let int_tag p = p
let fp_tag t p = t.cfg.Config.rf_size + p

(* --- memory hierarchy ---------------------------------------------------- *)

(* One access to the two-level hierarchy through the L1 [l1] at [level]:
   the latency until the data arrives — [hit] on a settled hit, the
   remaining fill time (+1) on a line still in flight, else the L2 or
   memory latency, installing the line in both levels. Every access
   path (load issue, store commit, instruction fetch, fast-forward)
   goes through here, so all apply the same state transitions; [quiet]
   (fast-forward) only suppresses the miss events and statistics. *)
let l1_access t l1 level ~hit ~quiet addr =
  let now = t.cycle in
  match Cache.probe l1 ~now addr with
  | Cache.Hit -> hit
  | Cache.Inflight r -> r + 1
  | Cache.Miss ->
    if not quiet then emit_cache_miss t level addr;
    let lat =
      match Cache.probe t.l2 ~now addr with
      | Cache.Hit -> t.cfg.Config.l2_hit
      | Cache.Inflight r -> r + 1
      | Cache.Miss ->
        if not quiet then emit_cache_miss t Ev.L2 addr;
        Cache.set_fill t.l2 addr (now + t.cfg.Config.mem_latency);
        t.cfg.Config.mem_latency
    in
    Cache.set_fill l1 addr (now + lat);
    lat

(* --- commit ------------------------------------------------------------ *)

(* Destinations travel as Rob's packed int codes on the hot path. *)
let release_dest_code t code =
  if code <> 0 then
    if code land 1 = 1 then Regfile.release t.int_rf (code asr 1)
    else Regfile.release t.fp_rf ((code asr 1) - 1)

let commit_one t idx =
  let dyn = Rob.dyn t.rob idx in
  let i = dyn.Exec.instr in
  emit_commit t dyn;
  release_dest_code t (Rob.old_code t.rob idx);
  (* Memory instructions leave the LSQ in program order at commit. *)
  if Rob.lsq_slot t.rob idx >= 0 then Lsq.pop_head t.lsq ~rob_idx:idx;
  (* The predictor trains at fetch (see [fetch_stage]), on correct-path
     branches only: their fetch order equals commit order, so updating
     there is exact and avoids stale-history aliasing for in-flight
     branches. *)
  (* Stores write the data cache at commit; write misses allocate but do
     not stall the pipeline (a write buffer is assumed). *)
  if Instr.is_store i then begin
    t.stores_in_flight <- t.stores_in_flight - 1;
    ignore
      (l1_access t t.dl1 Ev.Dl1 ~hit:t.cfg.Config.dl1_hit ~quiet:false
         dyn.Exec.addr
        : int)
  end

let commit_stage t =
  let n = ref 0 in
  while !n < t.cfg.Config.commit_width && Rob.head_is_completed t.rob do
    commit_one t (Rob.head_index t.rob);
    Rob.pop_head t.rob;
    incr n
  done

(* --- wrong-path squash -------------------------------------------------- *)

(* Undo one rename: restore the architectural mapping to the previous
   physical register and free the newly allocated one. Executed
   youngest-first over the squashed suffix, so the map and the free
   lists rewind in exactly the reverse of dispatch order — [free_head]
   and [free_count] end where the episode began them. *)
let undo_rename t idx =
  let code = Rob.dest_code t.rob idx in
  if code <> 0 then begin
    let old = Rob.old_code t.rob idx in
    if code land 1 = 1 then begin
      Regfile.release t.int_rf (code asr 1);
      match (Rob.dyn t.rob idx).Exec.instr.Instr.dst with
      | Some (Reg.Int a) -> t.int_map.(a) <- old asr 1
      | Some (Reg.Fp _) | None -> assert false
    end
    else begin
      Regfile.release t.fp_rf ((code asr 1) - 1);
      match (Rob.dyn t.rob idx).Exec.instr.Instr.dst with
      | Some (Reg.Fp a) -> t.fp_map.(a) <- (old asr 1) - 1
      | Some (Reg.Int _) | None -> assert false
    end
  end

(* The mispredicted branch at ROB index [bidx] has resolved: squash
   everything younger. Called from writeback *after* the cycle's wakeup
   broadcast (the invariant checker replays the pre-broadcast exposure,
   so the IQ must not change between the two).

   Rollback, piece by piece:
   - fetch queue: flushed whole — the branch dispatched long before
     completing, so everything still queued was fetched after it, i.e.
     wrong-path;
   - ROB: tail pops youngest-first until the branch is youngest again,
     undoing each rename ([undo_rename]) and reclaiming the entry's IQ
     slot and speculative LSQ tail entry as it goes. [Iq.squash_slot]
     unlinks the entry's waiting operands from their tags' waiter
     lists, so an older producer that survives never wakes a squashed
     (or reused) slot, and a tag freed here has an empty list already:
     its waiters are younger, hence popped first;
   - timing wheel: pending completions of squashed entries are filtered
     out (an issued wrong-path op must not complete into a reused slot);
   - IQ pointers: the squashed slots form the ring suffix dispatched
     since episode entry, so [tail] rewinds to the first wrong-path slot
     and [new_head]/[new_span] are restored from the per-slot wrong-path
     flags (regions cannot begin during an episode — wrong-path dispatch
     skips the policy — but [new_head] may have swept onto wrong-path
     territory, which empties the region);
   - RAS: restored from the episode-entry snapshot.
   Functional-unit reservations are deliberately left standing: a
   wrong-path divide keeps its unit busy, as in hardware.

   The functional oracle never executed any of this, so nothing
   architectural needs repair; fetch resumes on the correct path at the
   redirect cycle set by the resolution code in [writeback_stage]. *)
let squash_wrong_path t bidx =
  let branch_dyn = Rob.dyn t.rob bidx in
  let fq_squashed = t.fq_count in
  Array.fill t.fq_dyns 0 (Array.length t.fq_dyns) Rob.dummy_dyn;
  t.fq_head <- 0;
  t.fq_tail <- 0;
  t.fq_count <- 0;
  (* Geometry facts captured before any slot is freed. [new_head] rests
     on a valid slot whenever [new_span] > 0 (the issue sweep maintains
     this), so the wrong-path flag under it is authoritative. *)
  let iq = t.iq in
  let s0 = t.wp_iq_boundary in
  let new_head_on_wp = Bytes.unsafe_get t.iq_wp iq.Iq.new_head <> '\000' in
  let nrob = ref 0 in
  let leak_done = ref (not t.sabotage_squash_leak) in
  while
    Rob.occupancy t.rob > 0 && Rob.is_wp t.rob (Rob.tail_index t.rob)
  do
    let idx = Rob.tail_index t.rob in
    incr nrob;
    Bytes.unsafe_set t.squash_mark idx '\001';
    undo_rename t idx;
    let slot = Rob.iq_slot t.rob idx in
    if slot >= 0 then begin
      if !leak_done then Iq.squash_slot iq slot else leak_done := true;
      Bytes.unsafe_set t.iq_wp slot '\000'
    end;
    if Rob.lsq_slot t.rob idx >= 0 then Lsq.pop_tail t.lsq ~rob_idx:idx;
    if Instr.is_store (Rob.dyn t.rob idx).Exec.instr then
      t.stores_in_flight <- t.stores_in_flight - 1;
    Rob.pop_tail t.rob
  done;
  if !nrob > 0 then begin
    (* Drop pending completions of the squashed entries. *)
    for c = 0 to Array.length t.wheel - 1 do
      let n = t.wheel_len.(c) in
      if n > 0 then begin
        let buf = t.wheel.(c) in
        let k = ref 0 in
        for j = 0 to n - 1 do
          let idx = Array.unsafe_get buf j in
          if Bytes.unsafe_get t.squash_mark idx = '\000' then begin
            Array.unsafe_set buf !k idx;
            incr k
          end
        done;
        t.wheel_len.(c) <- !k
      end
    done;
    Bytes.fill t.squash_mark 0 (Bytes.length t.squash_mark) '\000'
  end;
  if s0 >= 0 then begin
    iq.Iq.tail <- s0;
    if iq.Iq.count = 0 then begin
      iq.Iq.head <- s0;
      iq.Iq.new_head <- s0;
      iq.Iq.new_span <- 0
    end
    else if iq.Iq.new_span = 0 then iq.Iq.new_head <- s0
    else if new_head_on_wp then begin
      (* Every older entry of the region issued and the sweep came to
         rest on wrong-path territory: the region is now empty. *)
      iq.Iq.new_head <- s0;
      iq.Iq.new_span <- 0
    end
    else
      iq.Iq.new_span <-
        (s0 - iq.Iq.new_head + iq.Iq.active_size) mod iq.Iq.active_size
  end;
  Branch_pred.ras_restore t.bpred t.wp_ras t.wp_ras_top;
  t.wp_mode <- false;
  t.wp_pc <- -1;
  t.wp_iq_boundary <- -1;
  emit_squash t branch_dyn ~squashed:(fq_squashed + !nrob)

(* --- writeback --------------------------------------------------------- *)

let writeback_stage t =
  let mask = Array.length t.wheel - 1 in
  let cell = t.cycle land mask in
  if t.wheel_len.(cell) > 0 && t.wheel_cycle.(cell) = t.cycle then begin
    let idxs = t.wheel.(cell) in
    let n = t.wheel_len.(cell) in
    t.wheel_len.(cell) <- 0;
    let resolved = ref (-1) in
    (* Oldest first, deterministically: scheduling order. All results
       completing this cycle broadcast together so wakeup counting sees
       one snapshot, as the parallel CAM ports do. *)
    let ntags = ref 0 in
    for k = 0 to n - 1 do
      let idx = Array.unsafe_get idxs k in
      Rob.set_state t.rob idx Rob.Completed;
      emit_writeback t idx;
      (let code = Rob.dest_code t.rob idx in
       if code <> 0 then
         if code land 1 = 1 then begin
           let p = code asr 1 in
           Regfile.mark_ready t.int_rf p;
           emit_rf_write t Ev.Int_rf p;
           t.wb_tags.(!ntags) <- int_tag p;
           incr ntags
         end
         else begin
           let p = (code asr 1) - 1 in
           Regfile.mark_ready t.fp_rf p;
           emit_rf_write t Ev.Fp_rf p;
           t.wb_tags.(!ntags) <- fp_tag t p;
           incr ntags
         end);
      (* A control instruction that blocked fetch now redirects it. *)
      if Rob.blocked_fetch t.rob idx then begin
        let dyn = Rob.dyn t.rob idx in
        if t.blocked_sn = dyn.Exec.sn then begin
          t.blocked_sn <- -1;
          t.fetch_resume_at <-
            Int.max t.fetch_resume_at
              (t.cycle + 1 + t.cfg.Config.mispredict_redirect);
          (* Speculative episode: squash after the wakeup broadcast. *)
          if t.wp_mode then resolved := idx
        end;
        Rob.set_blocked_fetch t.rob idx false
      end
    done;
    (* One wakeup event per broadcast group, carrying the comparison
       deltas under all three Figure 8 accounting schemes. *)
    let naive0 = t.iq.Iq.wakeups_naive in
    let nonempty0 = t.iq.Iq.wakeups_nonempty in
    let gated0 = t.iq.Iq.wakeups_gated in
    let suppressed0 = t.iq.Iq.wakeups_suppressed in
    let woken = Iq.broadcast_into t.iq t.wb_tags !ntags in
    if !ntags > 0 then
      emit_wakeup t ~tags:!ntags ~woken
        ~naive:(t.iq.Iq.wakeups_naive - naive0)
        ~nonempty:(t.iq.Iq.wakeups_nonempty - nonempty0)
        ~gated:(t.iq.Iq.wakeups_gated - gated0)
        ~suppressed:(t.iq.Iq.wakeups_suppressed - suppressed0);
    if !resolved >= 0 then squash_wrong_path t !resolved
  end

(* --- issue ------------------------------------------------------------- *)

(* Grow the completion wheel until no two in-flight completion cycles
   share a cell. Rare: only when a latency exceeds the initial span. *)
let wheel_grow t =
  let size = ref (2 * Array.length t.wheel) in
  let done_ = ref false in
  while not !done_ do
    let wheel = Array.make !size [||] in
    let len = Array.make !size 0 in
    let cyc = Array.make !size (-1) in
    (try
       for c = 0 to Array.length t.wheel - 1 do
         if t.wheel_len.(c) > 0 then begin
           let nc = t.wheel_cycle.(c) land (!size - 1) in
           if len.(nc) > 0 then raise Exit;
           wheel.(nc) <- t.wheel.(c);
           len.(nc) <- t.wheel_len.(c);
           cyc.(nc) <- t.wheel_cycle.(c)
         end
       done;
       t.wheel <- wheel;
       t.wheel_len <- len;
       t.wheel_cycle <- cyc;
       done_ := true
     with Exit -> size := !size * 2)
  done

let rec schedule_completion t idx latency =
  let c = t.cycle + (if latency > 1 then latency else 1) in
  let mask = Array.length t.wheel - 1 in
  let cell = c land mask in
  if t.wheel_len.(cell) > 0 && t.wheel_cycle.(cell) <> c then begin
    wheel_grow t;
    schedule_completion t idx latency
  end
  else begin
    if t.wheel_len.(cell) = 0 then t.wheel_cycle.(cell) <- c;
    let buf = t.wheel.(cell) in
    let n = t.wheel_len.(cell) in
    let buf =
      if n < Array.length buf then buf
      else begin
        let nb = Array.make (max 8 (2 * Array.length buf)) 0 in
        Array.blit buf 0 nb 0 n;
        t.wheel.(cell) <- nb;
        nb
      end
    in
    buf.(n) <- idx;
    t.wheel_len.(cell) <- n + 1
  end

(* For a load at ROB index [idx] with address [addr]: the ROB index of
   the youngest older in-flight store to the same address, or -1. The
   LSQ's age-ordered backward walk starts at the load's own entry, so it
   only visits memory instructions; a running count of in-flight stores
   skips it entirely in the common case. Wrong-path loads may forward
   from any older store; correct-path loads can never see a wrong-path
   store, which is always younger. *)
let conflicting_store t idx addr =
  if t.stores_in_flight = 0 then -1
  else Lsq.youngest_older_store t.lsq (Rob.lsq_slot t.rob idx) addr

(* Data-cache access latency for a load (address generation is the base
   instruction latency, the cache time is added on top). A line still in
   flight from an earlier miss delivers when its fill completes. *)
let load_cache_latency t addr =
  l1_access t t.dl1 Ev.Dl1 ~hit:t.cfg.Config.dl1_hit ~quiet:false addr

(* One register-file read event per issuing instruction, counting its
   int and fp source reads (the per-file counters live in [Regfile] for
   the invariant checker's recount). Reads the source fields directly —
   [Instr.sources] would build a list. *)
let count_rf_reads t (i : Instr.t) =
  let ints = ref 0 and fps = ref 0 in
  (match i.Instr.src1 with
  | Some (Reg.Int 0) | None -> ()
  | Some (Reg.Int _) ->
    Regfile.note_read t.int_rf;
    incr ints
  | Some (Reg.Fp _) ->
    Regfile.note_read t.fp_rf;
    incr fps);
  (match i.Instr.src2 with
  | Some (Reg.Int 0) | None -> ()
  | Some (Reg.Int _) ->
    Regfile.note_read t.int_rf;
    incr ints
  | Some (Reg.Fp _) ->
    Regfile.note_read t.fp_rf;
    incr fps);
  if !ints > 0 || !fps > 0 then emit_rf_read t ~ints:!ints ~fps:!fps

let issue_stage t =
  (* Issue slots per class: unit count minus units still executing an
     unpipelined operation. With no unpipelined op in flight (the common
     case, tracked by [unpipe_busy_until]) this is a plain copy. *)
  if t.cycle >= t.unpipe_busy_until then
    Array.blit t.fu_counts 0 t.avail 0 Fu.count_classes
  else
    for k = 0 to Fu.count_classes - 1 do
      let rel = t.fu_release.(k) in
      let busy = ref 0 in
      for j = 0 to Array.length rel - 1 do
        if Array.unsafe_get rel j > t.cycle then incr busy
      done;
      t.avail.(k) <- Int.max 0 (t.fu_counts.(k) - !busy)
    done;
  (* Collect the ready entries oldest-first into scratch, then try each.
     The scheduler policy bounds the select scan: oldest_first and
     load_delay examine the whole active ring, nskip:N only the N slots
     from [head] (holes included). [Iq.select_into] reads the ready set
     and reports in [scanned] how many slots an oldest-first walk
     examines — the [Select_scan] integrand.
     [t.scan_limit] is [Sched.scan_bound] pre-resolved at creation. *)
  let iq = t.iq in
  let ncand = Iq.select_into iq ~bound:t.scan_limit t.cand_slot in
  let steps = iq.Iq.scanned in
  if steps > 0 then emit_select_scan t ~entries:steps;
  let width = ref t.cfg.Config.issue_width in
  for c = 0 to ncand - 1 do
    if !width > 0 then begin
      let slot = t.cand_slot.(c) in
      let rob_idx = Iq.slot_rob_idx iq slot in
      let dyn = Rob.dyn t.rob rob_idx in
      let i = dyn.Exec.instr in
      let cls = Instr.fu_class i in
      let k = Fu.index cls in
      if t.avail.(k) > 0 then begin
        (* Loads must respect older same-address stores. *)
        let can = ref true in
        let extra = ref 0 in
        let store_forward = ref false in
        if Instr.is_load i then begin
          let sidx = conflicting_store t rob_idx dyn.Exec.addr in
          if sidx >= 0 then
            if Rob.is_completed t.rob sidx then begin
              (* forwarded from the store queue *)
              extra := 1;
              store_forward := true
            end
            else can := false (* store data not ready: cannot issue yet *)
          else extra := load_cache_latency t dyn.Exec.addr
        end;
        (* Address translation at issue: a DTLB miss delays the result,
           it does not block the issue slot. *)
        if !can && Instr.is_mem i && not (Tlb.access t.dtlb dyn.Exec.addr)
        then begin
          emit_tlb_miss t Ev.Dtlb dyn.Exec.addr;
          extra := !extra + t.cfg.Config.tlb_miss_penalty
        end;
        if !can then begin
          t.avail.(k) <- t.avail.(k) - 1;
          decr width;
          Iq.issue t.iq slot;
          Bytes.unsafe_set t.iq_wp slot '\000';
          Rob.set_state t.rob rob_idx Rob.Issued;
          Rob.set_iq_slot t.rob rob_idx (-1);
          emit_select t ~rob_idx ~iq_slot:slot;
          let lat = Instr.latency i + !extra in
          emit_issue t dyn ~latency:lat ~store_forward:!store_forward
            ~wp:(Rob.is_wp t.rob rob_idx);
          count_rf_reads t i;
          if Opcode.unpipelined i.Instr.op then begin
            (* Claim a unit instance that is currently free. One exists:
               avail was positive, so busy units < unit count. *)
            let rel = t.fu_release.(k) in
            let j = ref 0 in
            while rel.(!j) > t.cycle do
              incr j
            done;
            rel.(!j) <- t.cycle + lat;
            t.unpipe_busy_until <- Int.max t.unpipe_busy_until (t.cycle + lat)
          end;
          schedule_completion t rob_idx lat
        end
      end
    end
  done

(* --- dispatch ---------------------------------------------------------- *)

(* Rename one source: the physical tag and readiness packed into
   [(tag lsl 1) lor ready]; -1 when the operand is absent (no register,
   or the hardwired zero). *)
let src_code t r =
  match r with
  | Some (Reg.Int 0) | None -> -1
  | Some (Reg.Int a) ->
    let p = t.int_map.(a) in
    (int_tag p lsl 1) lor (if Regfile.is_ready t.int_rf p then 1 else 0)
  | Some (Reg.Fp a) ->
    let p = t.fp_map.(a) in
    (fp_tag t p lsl 1) lor (if Regfile.is_ready t.fp_rf p then 1 else 0)

(* Rename the destination; returns [(dest_code lsl 20) lor old_code] in
   Rob's packed encoding, or -1 when no register is free. *)
let rename_dest_codes t (i : Instr.t) =
  match i.Instr.dst with
  | Some (Reg.Int 0) | None -> 0 (* zero-register writes are discarded *)
  | Some (Reg.Int a) ->
    let p = Regfile.alloc_idx t.int_rf in
    if p < 0 then -1
    else begin
      let old = t.int_map.(a) in
      t.int_map.(a) <- p;
      (((2 * p) + 1) lsl 20) lor ((2 * old) + 1)
    end
  | Some (Reg.Fp a) ->
    let p = Regfile.alloc_idx t.fp_rf in
    if p < 0 then -1
    else begin
      let old = t.fp_map.(a) in
      t.fp_map.(a) <- p;
      (((2 * p) + 2) lsl 20) lor ((2 * old) + 2)
    end

(* Dispatch one instruction: [None] when it entered the window, else the
   stall that stopped it. *)
let dispatch_one t (dyn : Exec.dyn) ~wp : Ev.stall_reason option =
  let i = dyn.Exec.instr in
  (* A tag (the "Extension" encoding) opens a new region for this very
     instruction, costing nothing. Trace-only event: a stalled dispatch
     retries and re-announces the same delivery next cycle (the policy
     dedupes by region pc). Wrong-path tags are dropped: the policy's
     region state is software-architectural and is not rolled back at a
     squash, so it must only ever see the correct path. *)
  (match i.Instr.tag with
  | Some v when not wp ->
    if t.bus_on then
      Bus.emit t.bus
        (Ev.Annotation { pc = dyn.Exec.pc; value = v; delivery = Ev.Tag });
    Policy.on_annotation t.policy t.iq ~pc:dyn.Exec.pc ~value:v
  | Some _ | None -> ());
  if Rob.is_full t.rob then Some Ev.Rob_full
  else if not (Policy.allows t.policy t.iq) then
    if Iq.is_full t.iq then Some Ev.Iq_full else Some Ev.Policy_limit
  else if Instr.is_mem i && Lsq.is_full t.lsq then Some Ev.Lsq_full
  else begin
    (* Sources must be renamed before the destination gets a fresh
       register, or an instruction like [addi r2, r2, 1] would wait on
       its own result. The first present source is operand 0. *)
    let c1 = src_code t i.Instr.src1 in
    let c2 = src_code t i.Instr.src2 in
    let a = if c1 >= 0 then c1 else c2 in
    let b = if c1 >= 0 then c2 else -1 in
    let nsrc = (if a >= 0 then 1 else 0) + (if b >= 0 then 1 else 0) in
    let packed = rename_dest_codes t i in
    if packed < 0 then Some Ev.No_reg
    else begin
      (* Track, per physical tag, whether the current producer is a load
         (unpredictable latency). Written here, at the producer's
         rename, so it is current whenever a later consumer's dispatch
         reads it below — a producer cannot be freed while a consumer
         operand still waits on its tag. Only maintained when the policy
         actually suppresses predicted operands: the write is on the
         per-instruction rename path and must cost nothing otherwise. *)
      (let code = packed lsr 20 in
       if t.pred_track && code <> 0 then begin
         let tag =
           if code land 1 = 1 then code asr 1
           else t.cfg.Config.rf_size + (code asr 1) - 1
         in
         Bytes.unsafe_set t.tag_is_load tag
           (if Instr.is_load i then '\001' else '\000')
       end);
      let rob_idx =
        Rob.push_codes t.rob ~dyn ~dest_code:(packed lsr 20)
          ~old_code:(packed land 0xFFFFF) ~iq_slot:(-1) ~wp
      in
      (* Predicted-ready: the operand waits on a producer whose latency
         is deterministic (not a load) — only computed when the policy
         suppresses such operands' CAM comparisons. *)
      let pred0 =
        t.pred_track && a >= 0 && a land 1 = 0
        && Bytes.unsafe_get t.tag_is_load (a asr 1) = '\000'
      and pred1 =
        t.pred_track && b >= 0 && b land 1 = 0
        && Bytes.unsafe_get t.tag_is_load (b asr 1) = '\000'
      in
      let slot =
        Iq.dispatch_flat t.iq ~rob_idx ~nsrc
          ~tag0:((if a > 0 then a else 0) asr 1)
          ~ready0:(a >= 0 && a land 1 = 1)
          ~pred0
          ~tag1:((if b > 0 then b else 0) asr 1)
          ~ready1:(b >= 0 && b land 1 = 1)
          ~pred1
      in
      Rob.set_iq_slot t.rob rob_idx slot;
      Bytes.unsafe_set t.iq_wp slot (if wp then '\001' else '\000');
      if wp && t.wp_iq_boundary < 0 then t.wp_iq_boundary <- slot;
      (* Remember whether fetch is waiting on this instruction
         (wrong-path sns run strictly above [blocked_sn], so only the
         mispredicted branch itself can match). *)
      if t.blocked_sn = dyn.Exec.sn then
        Rob.set_blocked_fetch t.rob rob_idx true;
      let kind =
        if Instr.is_load i then Ev.Load
        else if Instr.is_store i then begin
          t.stores_in_flight <- t.stores_in_flight + 1;
          Ev.Store
        end
        else Ev.Plain
      in
      (* Memory instructions claim their LSQ entry speculatively at
         dispatch; addresses are exact (the frontend computes them), so
         the forwarding search never needs late disambiguation. *)
      if Instr.is_mem i then begin
        let ls =
          Lsq.push t.lsq ~rob_idx ~addr:dyn.Exec.addr
            ~is_store:(Instr.is_store i) ~wp
        in
        Rob.set_lsq_slot t.rob rob_idx ls
      end;
      emit_dispatch t dyn ~kind ~iq_slot:slot ~rob_idx
        ~cam_writes:(if nsrc < 2 then nsrc else 2)
        ~wp;
      None
    end
  end

let fq_pop t =
  t.fq_dyns.(t.fq_head) <- Rob.dummy_dyn;
  let h = t.fq_head + 1 in
  t.fq_head <- (if h = Array.length t.fq_dyns then 0 else h);
  t.fq_count <- t.fq_count - 1

let dispatch_stage t =
  let slots = ref t.cfg.Config.dispatch_width in
  let stop = ref None in
  let go = ref true in
  while
    !go && !slots > 0 && t.fq_count > 0 && t.fq_ready.(t.fq_head) <= t.cycle
  do
    let dyn = t.fq_dyns.(t.fq_head) in
    (* During an episode everything queued behind the mispredicted
       branch is wrong-path; the synthetic sns run strictly above the
       branch's, so the comparison also keeps the branch itself (and
       anything older still queued) on the correct path. *)
    let wp = t.wp_mode && dyn.Exec.sn > t.blocked_sn in
    match dyn.Exec.instr.Instr.op with
    | Opcode.Iqset ->
      (* The special NOOP is stripped at the last decode stage — but it has
         already consumed fetch bandwidth and now a dispatch slot
         (Section 5.2.1). A wrong-path one still burns the slot, but its
         annotation never reaches the (squash-exempt) policy state. *)
      fq_pop t;
      if not wp then begin
        Policy.on_annotation t.policy t.iq ~pc:dyn.Exec.pc
          ~value:dyn.Exec.instr.Instr.imm;
        emit_annotation_noop t ~pc:dyn.Exec.pc
          ~value:dyn.Exec.instr.Instr.imm
      end;
      decr slots
    | _ -> (
      match dispatch_one t dyn ~wp with
      | None ->
        fq_pop t;
        decr slots
      | s ->
        stop := s;
        go := false)
  done;
  (match !stop with Some reason -> emit_dispatch_stall t reason | None -> ());
  !stop

(* "Throttled" feeds the adaptive policy's pressure signal: a stall on a
   physically shrunken ring counts as pressure just like an explicit
   policy refusal. *)
let throttled t (stop : Ev.stall_reason option) =
  match stop with
  | Some Ev.Policy_limit -> true
  | Some Ev.Iq_full -> Iq.active_size t.iq < Iq.size t.iq
  | _ -> false

(* --- fetch ------------------------------------------------------------- *)

(* Instructions are 4 bytes; a fetch group may not cross a cache line. *)
let line_of t pc = pc * 4 / t.cfg.Config.il1_line

let fq_push t dyn =
  t.fq_dyns.(t.fq_tail) <- dyn;
  t.fq_ready.(t.fq_tail) <- t.cycle + t.cfg.Config.decode_depth;
  let tl = t.fq_tail + 1 in
  t.fq_tail <- (if tl = Array.length t.fq_dyns then 0 else tl);
  t.fq_count <- t.fq_count + 1

(* The frontend's one predictor step for a correct-path instruction
   [dyn], shared by detailed fetch and fast-forward so both train the
   predictor identically: consult it, then train it with the oracle's
   outcome at once (fetch order is commit order on the correct path).
   Returns the guessed next pc — the BTB's target (-1 on a miss) or the
   fall-through for a conditional, the BTB's target for a jump or call,
   the popped RAS address (-1 when empty) for a return, and [pc + 1]
   otherwise. A conditional's predicted direction is left in
   [t.pred_taken]. *)
let predict_train t (dyn : Exec.dyn) =
  let pc = dyn.Exec.pc in
  match dyn.Exec.instr.Instr.op with
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge ->
    let predicted_taken = Branch_pred.predict_direction t.bpred pc in
    let btb = Branch_pred.btb_lookup_tgt t.bpred pc in
    Branch_pred.update_direction t.bpred pc ~taken:dyn.Exec.taken;
    if dyn.Exec.taken then
      Branch_pred.btb_update t.bpred pc ~target:dyn.Exec.next_pc;
    t.pred_taken <- predicted_taken;
    if predicted_taken then btb else pc + 1
  | Opcode.Jmp | Opcode.Call as op ->
    if op = Opcode.Call then Branch_pred.ras_push t.bpred (pc + 1);
    let btb = Branch_pred.btb_lookup_tgt t.bpred pc in
    Branch_pred.btb_update t.bpred pc ~target:dyn.Exec.next_pc;
    btb
  | Opcode.Ret -> Branch_pred.ras_pop_addr t.bpred
  | _ -> pc + 1

(* Probe the instruction-side memory hierarchy for the fetch group at
   [start_pc]: ITLB first, then IL1 (with L2 refill). [Some delay]
   stalls fetch; the TLB installs on its miss, so the penalty is paid
   once per missing page. Probed once per fetch group, on either path. *)
let ifetch_stall t start_pc =
  if not (Tlb.access t.itlb (start_pc * 4)) then begin
    emit_tlb_miss t Ev.Itlb (start_pc * 4);
    Some t.cfg.Config.tlb_miss_penalty
  end
  else
    (* A settled hit costs no stall; -1 cannot be a latency. *)
    let lat = l1_access t t.il1 Ev.Il1 ~hit:(-1) ~quiet:false (start_pc * 4) in
    if lat < 0 then None else Some lat

(* --- wrong-path execution ------------------------------------------------ *)

(* Shadow executor for the speculative frontend (DESIGN.md §14): runs
   the *predicted* path after a detected mispredict. Values come from
   [Exec.datapath] on [t.wp_exec], a shadow of the oracle forked at
   episode entry — the same datapath [Exec.step] runs, over the
   shadow's registers and a store overlay on the oracle's memory; the
   oracle itself never leaves the correct path. Control flow follows the
   predictor, because down the wrong path there is no oracle outcome to
   follow: direction tables are read but never trained, the BTB's LRU is
   touched as any lookup does, and the RAS is pushed and popped for real
   (restored from the episode snapshot at squash).

   Executes the wrong-path instruction at [t.wp_pc]. [None] when the
   wrong path has nowhere to go — a predicted-taken transfer with no BTB
   target, a return off an empty RAS, a Halt, or running off the program
   — in which case the path ends ([wp_pc] becomes -1, nothing else is
   mutated) and wrong-path fetch idles until the mispredicted branch
   resolves. *)
let wp_step t : Exec.dyn option =
  let pc = t.wp_pc in
  if pc < 0 || pc >= Prog.length t.prog then begin
    t.wp_pc <- -1;
    None
  end
  else begin
    let i = t.prog.Prog.code.(pc) in
    (* Control decision first: a stalling opcode must leave no trace
       (the RAS pop for a feasible return is the one real mutation, and
       [ras_pop_addr] leaves an empty stack untouched). [next_pc] is -1
       on a stall, else the predicted successor. *)
    let taken =
      match i.Instr.op with
      | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge ->
        Branch_pred.predict_direction t.bpred pc
      | Opcode.Jmp | Opcode.Call | Opcode.Ret -> true
      | _ -> false
    in
    let next_pc =
      match i.Instr.op with
      | Opcode.Halt -> -1
      | _ when not taken -> pc + 1
      | Opcode.Ret -> Branch_pred.ras_pop_addr t.bpred
      | Opcode.Call ->
        let tgt = Branch_pred.btb_lookup_tgt t.bpred pc in
        if tgt >= 0 then Branch_pred.ras_push t.bpred (pc + 1);
        tgt
      | _ -> Branch_pred.btb_lookup_tgt t.bpred pc
    in
    if next_pc < 0 then begin
      t.wp_pc <- -1;
      None
    end
    else begin
      Exec.datapath t.wp_exec i;
      let sn = t.wp_next_sn in
      t.wp_next_sn <- sn + 1;
      t.wp_pc <- next_pc;
      Some
        {
          Exec.sn;
          pc;
          instr = i;
          next_pc;
          taken;
          addr = t.wp_exec.Exec.d_addr;
        }
    end
  end

(* Begin an episode: fetch will proceed down the predicted path while
   the mispredicted branch [dyn] executes. A [target] outside the
   program (-1 from a BTB miss or an empty RAS: no predicted target
   exists) leaves wrong-path fetch idle — timing then matches the
   blocking frontend, but resolution still flows through the squash
   path, keeping the accounting uniform. *)
let enter_wp_mode t (dyn : Exec.dyn) ~target =
  t.wp_mode <- true;
  t.wp_pc <-
    (if target >= 0 && target < Prog.length t.prog then target else -1);
  t.wp_next_sn <- dyn.Exec.sn + 1;
  t.wp_iq_boundary <- -1;
  Exec.fork t.wp_exec;
  t.wp_ras_top <- Branch_pred.ras_save t.bpred t.wp_ras

(* A taken transfer whose guessed target [guess] is wrong costs a BTB
   redirect bubble. *)
let btb_bubble t guess (dyn : Exec.dyn) =
  guess <> dyn.Exec.next_pc
  && begin
       t.fetch_resume_at <- t.cycle + t.cfg.Config.btb_miss_penalty;
       true
     end

(* After a detected mispredict of [dyn] (already recorded in
   [blocked_sn]): a speculative frontend keeps fetching down the
   predicted [target]; a blocking one fetched nothing speculative, and
   an empty squash still marks the recovery. *)
let after_mispredict t dyn ~target =
  if t.cfg.Config.speculative_fetch then enter_wp_mode t dyn ~target
  else emit_squash t dyn ~squashed:0

(* The correct path's source: the oracle's next instruction. A [Halt]
   is executed but never fetched; it, or running off the program, halts
   fetch. *)
let oracle_step t =
  match Exec.step t.exec with
  | None | Some { Exec.instr = { Instr.op = Opcode.Halt; _ }; _ } ->
    t.halted <- true;
    None
  | some -> some

(* Control flow of a fetched correct-path instruction: consult the
   predictor against the oracle, emit its one [Fetch] event, and on a
   mispredict park the correct-path frontend at [blocked_sn]. A
   mispredicted conditional follows the BTB's pre-update idea of a
   target (or falls through); a mispredicted return follows the popped
   RAS address, a pop that is architecturally right and part of the
   pre-episode snapshot. Returns whether the group may go on past
   [dyn]: a predicted-taken branch ends it (the caller ends it on any
   taken transfer). *)
let fetch_control t (dyn : Exec.dyn) =
  let guess = predict_train t dyn in
  let cond = Opcode.is_cond_branch dyn.Exec.instr.Instr.op in
  let mispredicted =
    if cond then t.pred_taken <> dyn.Exec.taken
    else dyn.Exec.instr.Instr.op = Opcode.Ret && guess <> dyn.Exec.next_pc
  in
  if mispredicted then begin
    t.blocked_sn <- dyn.Exec.sn;
    emit_fetch t dyn ~wp:false ~mispredicted ~btb_bubble:false;
    after_mispredict t dyn ~target:guess
  end
  else
    emit_fetch t dyn ~wp:false ~mispredicted
      ~btb_bubble:(dyn.Exec.taken && btb_bubble t guess dyn);
  not (cond && t.pred_taken)

(* One fetch group per cycle, for both paths, from a source picked once
   per group: the shadow executor ([wp_step]) while a mispredict is
   unresolved, else the oracle ([oracle_step]). The group rule is the
   same on both: one IL1 line, at most [fetch_width] instructions, room
   in the fetch queue, and any taken transfer ends the group. Wrong-path
   misses in the ITLB and IL1 pollute and prefetch for real. A
   wrong-path mispredict cannot occur (the shadow executor's predictions
   *define* the path); wrong-path fetch ends where the predicted path
   runs out, and idles while there is none (a blocking frontend, or an
   episode with no predicted target). *)
let fetch_stage t =
  if t.halted || t.fetch_hold || t.cycle < t.fetch_resume_at then ()
  else begin
    let wp = t.blocked_sn >= 0 in
    let start_pc = if wp then t.wp_pc else t.exec.Exec.pc in
    if wp && ((not t.wp_mode) || start_pc < 0) then ()
    else if (not wp) && (start_pc < 0 || start_pc >= Prog.length t.prog) then
      t.halted <- true
    else
      match ifetch_stall t start_pc with
      | Some lat ->
        (* ITLB or instruction-cache miss: stall fetch for the refill. *)
        t.fetch_resume_at <- t.cycle + lat
      | None ->
        (* First pc past the group's cache line: inside the loop pc only
           ever increments (every redirecting op ends the group), so one
           bound check replaces a per-instruction division. *)
        let group_hi =
          (((line_of t start_pc + 1) * t.cfg.Config.il1_line) + 3) / 4
        in
        let fetched = ref 0 in
        let continue = ref true in
        while
          !continue
          && !fetched < t.cfg.Config.fetch_width
          && t.fq_count < t.cfg.Config.fetch_queue_size
        do
          if (if wp then t.wp_pc else t.exec.Exec.pc) >= group_hi then
            continue := false
          else
            match if wp then wp_step t else oracle_step t with
            | None -> continue := false
            | Some dyn ->
              fq_push t dyn;
              incr fetched;
              let goes_on =
                if wp then begin
                  emit_fetch t dyn ~wp ~mispredicted:false ~btb_bubble:false;
                  true
                end
                else fetch_control t dyn
              in
              continue := goes_on && not dyn.Exec.taken
        done
  end

(* --- end of cycle ------------------------------------------------------- *)

(* Per-bank gate/ungate transition events (trace-only), derived by
   diffing the powered-bank mask against the previous cycle's. *)
let emit_bank_transitions t ~unit_ ~prev ~cur =
  if prev <> cur then begin
    let changed = prev lxor cur in
    let b = ref 0 in
    let m = ref changed in
    while !m <> 0 do
      if !m land 1 = 1 then
        Bus.emit t.bus
          (if cur land (1 lsl !b) <> 0 then Ev.Bank_ungated { unit_; bank = !b }
           else Ev.Bank_gated { unit_; bank = !b });
      incr b;
      m := !m lsr 1
    done
  end

let cycle_end_stage t ~throttled =
  let iq_mask = Iq.banks_on_mask t.iq in
  let int_mask = Regfile.banks_on_mask t.int_rf in
  let fp_mask = Regfile.banks_on_mask t.fp_rf in
  let iq_occupancy = Iq.occupancy t.iq in
  let iq_banks_on = Iq.banks_on t.iq in
  let int_rf_banks_on = Regfile.banks_on t.int_rf in
  let int_rf_live = Regfile.live_count t.int_rf in
  let fp_rf_banks_on = Regfile.banks_on t.fp_rf in
  (* Fold the integrand into the pipeline's own stats first: a
     [Cycle_end] sink must read fully-updated per-cycle sums. *)
  Stats.cycle_end t.stats ~cycle:t.cycle ~iq_occupancy ~iq_banks_on
    ~int_rf_banks_on ~int_rf_live ~fp_rf_banks_on;
  (* The policy's end-of-cycle action (the adaptive scheme senses
     pressure and resizes here). A resize only drops/adds empty banks,
     so the masks captured above are unaffected. *)
  let size_before = Iq.active_size t.iq in
  Policy.end_cycle t.policy t.iq ~resize_ok:(not t.wp_mode) ~throttled;
  t.cycle <- t.cycle + 1;
  if t.bus_on then begin
    emit_bank_transitions t ~unit_:Ev.Iq_bank ~prev:t.prev_iq_bank_mask
      ~cur:iq_mask;
    emit_bank_transitions t ~unit_:Ev.Int_rf_bank ~prev:t.prev_int_rf_bank_mask
      ~cur:int_mask;
    emit_bank_transitions t ~unit_:Ev.Fp_rf_bank ~prev:t.prev_fp_rf_bank_mask
      ~cur:fp_mask;
    let size_after = Iq.active_size t.iq in
    if size_after <> size_before then
      Bus.emit t.bus (Ev.Resize { before = size_before; after = size_after });
    (* Last event of the cycle, always: per-cycle observers (the
       invariant checker) run here with the post-increment cycle count
       and every counter for the cycle already folded in. The stats
       took the integrand through [Stats.cycle_end] above, so the event
       goes straight to the bus. *)
    Bus.emit t.bus
      (Ev.Cycle_end
         {
           cycle = t.cycle - 1;
           throttled;
           iq_occupancy;
           iq_banks_on;
           int_rf_banks_on;
           int_rf_live;
           fp_rf_banks_on;
         })
  end;
  t.prev_iq_bank_mask <- iq_mask;
  t.prev_int_rf_bank_mask <- int_mask;
  t.prev_fp_rf_bank_mask <- fp_mask

(* --- main loop ---------------------------------------------------------- *)

let drained t = t.halted && Rob.is_empty t.rob && t.fq_count = 0

(* One cycle; returns the reason dispatch stopped, if it did. *)
let step t =
  commit_stage t;
  writeback_stage t;
  issue_stage t;
  let stop = dispatch_stage t in
  fetch_stage t;
  cycle_end_stage t ~throttled:(throttled t stop);
  stop

let step_cycle t = ignore (step t : Ev.stall_reason option)

(* --- quiet-cycle skipping (DESIGN.md §13.5) ----------------------------- *)

(* [c] if it is a cycle still to come that is due before [h], else [h]. *)
let earlier ~now h c = if c >= now && c < h then c else h

(* The earliest cycle at or after [t.cycle] on which a timed input can
   change what a stage does, or [limit] if sooner: a completion wheel
   cell falls due, fetch's stall ends, the fetch-queue head finishes
   decode, or an unpipelined unit frees up (a squashed divide keeps its
   unit with no completion left to mark the release). Every pending
   completion cycle is at least [t.cycle], and the wheel cell [d] slots
   ahead can only hold a cycle [>= t.cycle + d], so the walk stops at
   the bound found so far. *)
let next_due t ~limit =
  let now = t.cycle in
  let h = ref (earlier ~now limit t.fetch_resume_at) in
  if t.fq_count > 0 then h := earlier ~now !h t.fq_ready.(t.fq_head);
  if t.unpipe_busy_until >= now then
    for k = 0 to Fu.count_classes - 1 do
      let rel = t.fu_release.(k) in
      for j = 0 to Array.length rel - 1 do
        h := earlier ~now !h (Array.unsafe_get rel j)
      done
    done;
  let mask = Array.length t.wheel - 1 in
  let d = ref 0 in
  while !d <= mask && now + !d < !h do
    let cell = (now + !d) land mask in
    if Array.unsafe_get t.wheel_len cell > 0 then
      h := earlier ~now !h (Array.unsafe_get t.wheel_cycle cell);
    incr d
  done;
  !h

(* The cycle just stepped was quiet, and the next ones repeat it until
   [next_due]: jump there, folding the repeats' statistics and the
   policy's sensing in closed form. *)
let skip_quiet t ~stop ~limit =
  let k =
    Policy.idle t.policy t.iq ~cycles:(next_due t ~limit - t.cycle)
      ~throttled:(throttled t stop)
  in
  if k > 0 then begin
    Stats.quiet_cycles t.stats ~cycles:k ~iq_occupancy:(Iq.occupancy t.iq)
      ~iq_banks_on:(Iq.banks_on t.iq)
      ~int_rf_banks_on:(Regfile.banks_on t.int_rf)
      ~int_rf_live:(Regfile.live_count t.int_rf)
      ~fp_rf_banks_on:(Regfile.banks_on t.fp_rf)
      ~scan_entries:t.iq.Iq.scanned ~stall:stop;
    t.cycle <- t.cycle + k
  end

(* One cycle of a run with no sink, then the skip if the cycle was
   quiet: it committed, completed, issued, dispatched and fetched
   nothing, missed in no frontend cache or TLB, squashed nothing, and
   left fetch's stall, the ring geometry, the ROB and the fetch queue as
   they were. The machine state it leaves differs from the one it found
   only in what changes no later outcome: LRU stamps of the hit a
   stalled fetch re-probes, the [Cache.hits] and
   [Regfile.alloc_failures] counters only unit tests read, and a
   software-policy annotation the next cycle dedupes. So the next cycle
   repeats it, until [next_due] or a closing sensing window. [limit] is
   the caller's cycle cap; the skip never passes it. *)
let step_skipping t ~limit =
  let s = t.stats and iq = t.iq in
  let committed = s.Stats.committed and selects = s.Stats.iq_selects
  and dispatched = s.Stats.dispatched + s.Stats.iqset_dispatch_slots
  and fetched = s.Stats.fetched and squashes = s.Stats.squashes
  and misses = s.Stats.il1_misses + s.Stats.itlb_misses in
  let resume = t.fetch_resume_at and halted = t.halted and wp_pc = t.wp_pc
  and fq = t.fq_count and rob = Rob.occupancy t.rob in
  let active = iq.Iq.active_size and new_head = iq.Iq.new_head
  and new_span = iq.Iq.new_span in
  let cell = t.cycle land (Array.length t.wheel - 1) in
  let completes = t.wheel_len.(cell) > 0 && t.wheel_cycle.(cell) = t.cycle in
  let stop = step t in
  if
    (not completes)
    && s.Stats.committed = committed
    && s.Stats.iq_selects = selects
    && s.Stats.dispatched + s.Stats.iqset_dispatch_slots = dispatched
    && s.Stats.fetched = fetched
    && s.Stats.squashes = squashes
    && s.Stats.il1_misses + s.Stats.itlb_misses = misses
    && t.fetch_resume_at = resume
    && t.halted = halted
    && t.wp_pc = wp_pc
    && t.fq_count = fq
    && Rob.occupancy t.rob = rob
    && iq.Iq.active_size = active
    && iq.Iq.new_head = new_head
    && iq.Iq.new_span = new_span
  then skip_quiet t ~stop ~limit

(* Run until the program drains or [max_insns] instructions have
   committed. Raises [Simulation_limit] after [max_cycles] as a deadlock
   guard. With no sink subscribed, quiet cycles are skipped up to the
   next timed event; with any sink, every cycle is stepped. *)
let run ?(max_insns = max_int) ?(max_cycles = 200_000_000) t =
  while
    (not (drained t)) && t.stats.Stats.committed < max_insns
  do
    if t.cycle >= max_cycles then
      raise
        (Simulation_limit
           (Printf.sprintf
              "no progress: %d cycles, %d committed (policy %s)"
              t.cycle t.stats.Stats.committed (Policy.name t.policy)));
    if t.bus_on then step_cycle t else step_skipping t ~limit:max_cycles
  done;
  t.stats

(* --- sampled simulation (SMARTS-style) ---------------------------------- *)

(* Hold or release fetch; in-flight instructions keep flowing either way. *)
let set_fetch_hold t on = t.fetch_hold <- on

let in_flight_empty t = Rob.is_empty t.rob && t.fq_count = 0

(* Hold fetch and run until every in-flight instruction has retired —
   the machine is then ready for a functional fast-forward. Fetch stays
   held; the caller releases it when detailed simulation resumes. *)
let drain ?(max_cycles = 1_000_000) t =
  t.fetch_hold <- true;
  let deadline = t.cycle + max_cycles in
  while (not (in_flight_empty t)) && t.cycle < deadline do
    if t.bus_on then step_cycle t else step_skipping t ~limit:deadline
  done;
  if not (in_flight_empty t) then
    raise
      (Simulation_limit
         (Printf.sprintf "drain: in-flight instructions did not retire \
                          within %d cycles" max_cycles))

(* Functional fast-forward: execute up to [insns] oracle instructions
   with no timing model, keeping the long-lived microarchitectural state
   warm — branch-direction tables, BTB, RAS, all three caches, both
   TLBs and the policy's region state receive exactly the updates
   detailed execution would apply: the same [predict_train] step per
   control transfer, the same [l1_access] walk (quiet: no events) with
   an ITLB train per line transition and a DTLB train per load and
   store, annotations delivered in program order.
   The cycle counter advances one cycle per instruction so cache fill
   times stay monotone; no events are emitted and no statistics change.
   Requires a drained machine (see [drain]). Returns the number of
   instructions actually skipped (fewer than [insns] only at halt). *)
let fast_forward t ~insns =
  if not (in_flight_empty t) then
    invalid_arg "Pipeline.fast_forward: pipeline not drained";
  let n = ref 0 in
  let last_line = ref min_int in
  while !n < insns && not t.halted do
    let pc = t.exec.Exec.pc in
    if pc < 0 || pc >= Prog.length t.prog then t.halted <- true
    else begin
      let line = line_of t pc in
      if line <> !last_line then begin
        last_line := line;
        Tlb.train t.itlb (pc * 4);
        ignore (l1_access t t.il1 Ev.Il1 ~hit:0 ~quiet:true (pc * 4) : int)
      end;
      match Exec.step t.exec with
      | None -> t.halted <- true
      | Some dyn ->
        incr n;
        t.cycle <- t.cycle + 1;
        let i = dyn.Exec.instr in
        (match i.Instr.op with
        | Opcode.Halt -> t.halted <- true
        | Opcode.Iqset ->
          Policy.on_annotation t.policy t.iq ~pc:dyn.Exec.pc
            ~value:i.Instr.imm
        | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge | Opcode.Jmp
        | Opcode.Call | Opcode.Ret ->
          ignore (predict_train t dyn : int)
        | Opcode.Load | Opcode.Fload | Opcode.Store | Opcode.Fstore ->
          Tlb.train t.dtlb dyn.Exec.addr;
          ignore
            (l1_access t t.dl1 Ev.Dl1 ~hit:0 ~quiet:true dyn.Exec.addr : int)
        | _ -> ());
        (* A tagged instruction delivers its annotation regardless of
           opcode, as at dispatch. *)
        (match i.Instr.tag with
        | Some v ->
          Policy.on_annotation t.policy t.iq ~pc:dyn.Exec.pc ~value:v
        | None -> ())
    end
  done;
  !n

(* --- read-only view ----------------------------------------------------- *)

(* A stable accessor surface for observers (the invariant checker, tests):
   everything needed to audit the machine without reaching into record
   fields, and nothing that mutates it. *)
module Debug = struct
  let cfg t = t.cfg
  let policy t = t.policy
  let sched t = t.sched

  (* Whether physical tag [tag]'s current producer is a load. *)
  let tag_is_load t tag = Bytes.get t.tag_is_load tag <> '\000'
  let iq t = t.iq
  let rob t = t.rob
  let int_rf t = t.int_rf
  let fp_rf t = t.fp_rf
  let int_map t = Array.copy t.int_map
  let fp_map t = Array.copy t.fp_map
  let cycle t = t.cycle
  let halted t = t.halted
  let exec t = t.exec
  let stats t = t.stats
  let bus t = t.bus
  let lsq t = t.lsq
  let itlb t = t.itlb
  let dtlb t = t.dtlb
  let wp_mode t = t.wp_mode
  let blocked_sn t = t.blocked_sn

  (* One-line machine-state excerpt for diagnostics. *)
  let excerpt t =
    let iq = t.iq in
    let oldest_sn = ref (-1) in
    Rob.iter_in_flight t.rob (fun idx ->
        if !oldest_sn < 0 then oldest_sn := (Rob.dyn t.rob idx).Exec.sn);
    Printf.sprintf
      "cycle=%d policy=%s iq[head=%d new_head=%d tail=%d count=%d span=%d \
       active=%d/%d] rob[count=%d oldest_sn=%d] rf[int live=%d free=%d; \
       fp live=%d free=%d] fq=%d committed=%d%s"
      t.cycle (Policy.name t.policy) iq.Iq.head iq.Iq.new_head iq.Iq.tail
      iq.Iq.count iq.Iq.new_span iq.Iq.active_size iq.Iq.size
      (Rob.occupancy t.rob) !oldest_sn
      (Regfile.live_count t.int_rf)
      (Regfile.free_count t.int_rf)
      (Regfile.live_count t.fp_rf)
      (Regfile.free_count t.fp_rf)
      t.fq_count t.stats.Stats.committed
      (if t.halted then " halted" else "")
end

(* --- test hooks ---------------------------------------------------------- *)

module For_testing = struct
  (* The next squash leaves its first wrong-path IQ entry live (rename
     and ROB still rolled back) — the stale-entry leak the checker's
     IQ/ROB-linkage invariant must catch. *)
  let set_sabotage_squash_leak t v = t.sabotage_squash_leak <- v
end
