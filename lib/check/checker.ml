(* Cycle-level invariant checker.

   Attached to a pipeline as a [Cycle_end] sink ([attach]), it audits
   the machine after every cycle against the structural invariants the paper's results
   rest on (see DESIGN.md, "Invariants the pipeline maintains"): the
   software dispatch window is honoured, gated banks are genuinely empty,
   the per-cycle power integrals match a recount of the actual state, the
   ROB drains in program order, the physical register files conserve
   registers across rename, commit and squash, wrong-path work stays
   confined to an open mispredict episode with live IQ/ROB/LSQ linkage
   (DESIGN.md §14), the queue's event-driven wakeup state (operand
   counts, ready set, waiter lists) agrees with its slots, and the
   wakeup counters fed to [Sdiq_power] equal the comparisons the queue
   really performed.

   The wakeup check exploits the pipeline's phase order (commit →
   writeback → issue → dispatch): the issue queue is untouched between the
   end of cycle k-1 and cycle k's writeback broadcast, so the end-of-cycle
   operand exposure recorded at k-1 is exactly the snapshot the parallel
   CAM ports compare against at k. The checker replays the accounting
   arithmetic from that snapshot and demands equality, not bounds.

   Checks are O(machine size) per cycle (IQ slots + ROB entries + register
   files). Violations are formatted only on failure — the passing path
   allocates nothing. *)

open Sdiq_cpu

type violation = {
  cycle : int;
  invariant : string;  (* which rule tripped, e.g. "iq-dispatch-window" *)
  detail : string;     (* what was expected and what was found *)
  excerpt : string;    (* one-line machine-state summary *)
}

exception Invariant_violation of violation

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>invariant %S violated at cycle %d:@ %s@ state: %s@]"
    v.invariant v.cycle v.detail v.excerpt

let () =
  Printexc.register_printer (function
    | Invariant_violation v -> Some (Fmt.str "%a" pp_violation v)
    | _ -> None)

type t = {
  mutable cycles_checked : int;
  (* previous per-cycle integrals, to verify this cycle's increments *)
  mutable prev_iq_banks_on_sum : int;
  mutable prev_int_rf_banks_on_sum : int;
  mutable prev_fp_rf_banks_on_sum : int;
  mutable prev_int_rf_live_sum : int;
  (* commit-order watermark *)
  mutable prev_oldest_sn : int;
  (* previous wakeup counters and the operand exposure they will see *)
  mutable prev_broadcasts : int;
  mutable prev_naive : int;
  mutable prev_nonempty : int;
  mutable prev_gated : int;
  mutable prev_suppressed : int;
  mutable prev_present_ops : int;
  mutable prev_waiting_ops : int;
  mutable prev_pred_waiting_ops : int;
  (* previous select-scan integral, to bound this cycle's sweep *)
  mutable prev_scan_entries : int;
}

let create () =
  {
    cycles_checked = 0;
    prev_iq_banks_on_sum = 0;
    prev_int_rf_banks_on_sum = 0;
    prev_fp_rf_banks_on_sum = 0;
    prev_int_rf_live_sum = 0;
    prev_oldest_sn = -1;
    prev_broadcasts = 0;
    prev_naive = 0;
    prev_nonempty = 0;
    prev_gated = 0;
    prev_suppressed = 0;
    prev_present_ops = 0;
    prev_waiting_ops = 0;
    prev_pred_waiting_ops = 0;
    prev_scan_entries = 0;
  }

let cycles_checked c = c.cycles_checked

let fail p ~invariant fmt =
  Printf.ksprintf
    (fun detail ->
      raise
        (Invariant_violation
           {
             cycle = Pipeline.Debug.cycle p;
             invariant;
             detail;
             excerpt = Pipeline.Debug.excerpt p;
           }))
    fmt

(* --- issue-queue structure --------------------------------------------- *)

let check_iq p =
  let iq = Pipeline.Debug.iq p in
  let active = iq.Iq.active_size in
  (* Gated-off banks (beyond the adaptive scheme's active ring) must hold
     nothing — they are powered down. *)
  for s = active to iq.Iq.size - 1 do
    if Iq.slot_valid iq s then
      fail p ~invariant:"iq-gated-bank-empty"
        "slot %d is valid but lies beyond active_size %d (its bank is off)"
        s active
  done;
  (* The occupancy count must equal a recount of valid slots. *)
  let valid = ref 0 in
  for s = 0 to active - 1 do
    if Iq.slot_valid iq s then incr valid
  done;
  if !valid <> iq.Iq.count then
    fail p ~invariant:"iq-count"
      "count field says %d valid entries, recount finds %d" iq.Iq.count !valid;
  if iq.Iq.head >= active || iq.Iq.new_head >= active || iq.Iq.tail >= active
  then
    fail p ~invariant:"iq-pointers"
      "pointer outside active ring: head=%d new_head=%d tail=%d active=%d"
      iq.Iq.head iq.Iq.new_head iq.Iq.tail active;
  (* When occupied, [head] must rest on a valid entry (it sweeps to one). *)
  if iq.Iq.count > 0 && not (Iq.slot_valid iq iq.Iq.head) then
    fail p ~invariant:"iq-head-valid"
      "head=%d points at an empty slot while count=%d" iq.Iq.head iq.Iq.count;
  (* The recorded region span must agree with the pointers: congruent to
     tail - new_head modulo the ring, and never exceeding the ring. *)
  let span = iq.Iq.new_span in
  if
    span < 0 || span > active
    || span mod active <> (iq.Iq.tail - iq.Iq.new_head + active) mod active
  then
    fail p ~invariant:"iq-span"
      "new_span=%d disagrees with new_head=%d tail=%d (active=%d)" span
      iq.Iq.new_head iq.Iq.tail active

(* --- event-driven wakeup state ------------------------------------------ *)

(* The queue prices broadcasts from incremental operand counts, wakes
   operands through per-tag waiter lists and selects from a ready set
   (DESIGN.md §13.1). Recount all of it from the raw slot bytes: the
   present / waiting / predicted-waiting counts, each valid slot's
   waiting count, the ready set (exactly the slots [Iq.slot_ready]
   accepts, each once at the position [ready_pos] records), and the
   waiter lists (every entry a waiting operand carrying the list's tag,
   and as many entries in all as there are waiting operands). *)
let check_wakeup_state p =
  let iq = Pipeline.Debug.iq p in
  let present = ref 0 and waiting = ref 0 and pred_waiting = ref 0 in
  let nready = ref 0 in
  for s = 0 to iq.Iq.size - 1 do
    if Iq.slot_valid iq s then begin
      let w = ref 0 in
      for j = 0 to 1 do
        if Iq.op_present iq s j then begin
          incr present;
          if not (Iq.op_ready iq s j) then begin
            incr w;
            if Iq.op_pred iq s j then incr pred_waiting
          end
        end
      done;
      waiting := !waiting + !w;
      let recorded = Char.code (Bytes.get iq.Iq.slot_waiting s) in
      if recorded <> !w then
        fail p ~invariant:"iq-wakeup-state"
          "slot %d records %d waiting operands, recount finds %d" s recorded
          !w
    end;
    let pos = iq.Iq.ready_pos.(s) in
    if Iq.slot_ready iq s then begin
      incr nready;
      if pos < 0 || pos >= iq.Iq.nready || iq.Iq.ready.(pos) <> s then
        fail p ~invariant:"iq-wakeup-state"
          "slot %d is ready but missing from the ready set (position %d)" s
          pos
    end
    else if pos >= 0 then
      fail p ~invariant:"iq-wakeup-state"
        "slot %d is in the ready set (position %d) but not ready" s pos
  done;
  if !nready <> iq.Iq.nready then
    fail p ~invariant:"iq-wakeup-state"
      "ready set holds %d slots, %d slots are ready" iq.Iq.nready !nready;
  if
    !present <> iq.Iq.present_ops
    || !waiting <> iq.Iq.waiting_ops
    || !pred_waiting <> iq.Iq.pred_waiting_ops
  then
    fail p ~invariant:"iq-wakeup-state"
      "operand counts say present=%d waiting=%d predicted-waiting=%d, \
       recount finds %d/%d/%d"
      iq.Iq.present_ops iq.Iq.waiting_ops iq.Iq.pred_waiting_ops !present
      !waiting !pred_waiting;
  let listed = ref 0 in
  let limit = 2 * iq.Iq.size in
  for g = 0 to Iq.tags iq - 1 do
    let o = ref iq.Iq.wait_head.(g) in
    while !o >= 0 do
      let s = !o / 2 and j = !o mod 2 in
      if
        !o >= limit
        || (not (Iq.slot_valid iq s))
        || (not (Iq.op_present iq s j))
        || Iq.op_ready iq s j
        || Iq.op_tag iq s j <> g
      then
        fail p ~invariant:"iq-wakeup-state"
          "tag %d's waiter list holds operand %d of slot %d, which is not \
           waiting on it"
          g j s;
      incr listed;
      if !listed > limit then
        fail p ~invariant:"iq-wakeup-state"
          "waiter lists hold more than %d entries (a cycle)" limit;
      o := iq.Iq.wait_next.(!o)
    done
  done;
  if !listed <> !waiting then
    fail p ~invariant:"iq-wakeup-state"
      "waiter lists hold %d operands, %d operands are waiting" !listed
      !waiting

(* --- the paper's dispatch limit ---------------------------------------- *)

let check_dispatch_window p =
  let iq = Pipeline.Debug.iq p in
  match Pipeline.Debug.policy p with
  | Policy.Software s ->
    (* Section 3.2: at most max_new_range slots (holes included) between
       new_head and tail, itself capped at size - 1 so the region can
       never wrap the whole ring. *)
    let cap = min s.Policy.max_new_range (Iq.size iq - 1) in
    if Iq.new_region_span iq > cap then
      fail p ~invariant:"iq-dispatch-window"
        "region spans %d slots, exceeding the compiler's max_new_range %d \
         (cap %d)"
        (Iq.new_region_span iq) s.Policy.max_new_range cap
  | Policy.Unlimited | Policy.Abella _ -> ()

(* --- per-cycle power integrals ----------------------------------------- *)

let count_rf_banks_on (rf : Regfile.t) =
  let nb = Regfile.banks rf in
  let on = ref 0 in
  for b = 0 to nb - 1 do
    let lo = b * rf.Regfile.bank_size in
    let hi = min rf.Regfile.size (lo + rf.Regfile.bank_size) - 1 in
    let live = ref false in
    for i = lo to hi do
      if not rf.Regfile.free.(i) then live := true
    done;
    if !live then incr on
  done;
  !on

let check_power_integrals c p =
  let stats = Pipeline.Debug.stats p in
  let iq = Pipeline.Debug.iq p in
  let int_rf = Pipeline.Debug.int_rf p in
  let fp_rf = Pipeline.Debug.fp_rf p in
  (* Each per-cycle sum must have grown by exactly the value a recount of
     the live state yields — the power model integrates these. *)
  (* Recount from the raw valid bytes, not the incremental [bank_live]
     counters the pipeline integrates — this is what keeps the audit
     independent of the fast path it is auditing. *)
  let d_iq = stats.Stats.iq_banks_on_sum - c.prev_iq_banks_on_sum in
  let iq_on = Iq.recount_banks_on iq in
  if d_iq <> iq_on then
    fail p ~invariant:"iq-banks-on-accounting"
      "iq_banks_on_sum grew by %d this cycle but %d banks hold entries" d_iq
      iq_on;
  let d_int = stats.Stats.int_rf_banks_on_sum - c.prev_int_rf_banks_on_sum in
  let int_on = count_rf_banks_on int_rf in
  if d_int <> int_on then
    fail p ~invariant:"rf-banks-on-accounting"
      "int_rf_banks_on_sum grew by %d but %d banks hold live registers" d_int
      int_on;
  let d_fp = stats.Stats.fp_rf_banks_on_sum - c.prev_fp_rf_banks_on_sum in
  let fp_on = count_rf_banks_on fp_rf in
  if d_fp <> fp_on then
    fail p ~invariant:"rf-banks-on-accounting"
      "fp_rf_banks_on_sum grew by %d but %d banks hold live registers" d_fp
      fp_on;
  let d_live = stats.Stats.int_rf_live_sum - c.prev_int_rf_live_sum in
  let live = Regfile.live_count int_rf in
  if d_live <> live then
    fail p ~invariant:"rf-live-accounting"
      "int_rf_live_sum grew by %d but %d registers are live" d_live live;
  c.prev_iq_banks_on_sum <- stats.Stats.iq_banks_on_sum;
  c.prev_int_rf_banks_on_sum <- stats.Stats.int_rf_banks_on_sum;
  c.prev_fp_rf_banks_on_sum <- stats.Stats.fp_rf_banks_on_sum;
  c.prev_int_rf_live_sum <- stats.Stats.int_rf_live_sum

(* --- reorder buffer ----------------------------------------------------- *)

let check_rob c p =
  let rob = Pipeline.Debug.rob p in
  (* Program order head→tail: strictly increasing sequence numbers, and
     the oldest in-flight instruction only ever moves forward (commits
     happen at the head, in order, or not at all). *)
  let prev_sn = ref (-1) in
  let oldest = ref (-1) in
  Rob.iter_in_flight rob (fun idx ->
      let d = Rob.dyn rob idx in
      if d.Sdiq_isa.Exec.sn < 0 then
        fail p ~invariant:"rob-entry-live"
          "in-flight ROB entry %d carries no instruction" idx;
      if !oldest < 0 then oldest := d.Sdiq_isa.Exec.sn;
      if d.Sdiq_isa.Exec.sn <= !prev_sn then
        fail p ~invariant:"rob-program-order"
          "ROB entry %d has sn %d after sn %d — commit order broken" idx
          d.Sdiq_isa.Exec.sn !prev_sn;
      prev_sn := d.Sdiq_isa.Exec.sn);
  if !oldest >= 0 then begin
    if !oldest < c.prev_oldest_sn then
      fail p ~invariant:"rob-head-monotonic"
        "oldest in-flight sn went backwards: %d after %d" !oldest
        c.prev_oldest_sn;
    c.prev_oldest_sn <- !oldest
  end

(* --- physical register conservation ------------------------------------ *)

(* Every allocated physical register must be reachable exactly once: either
   as the current mapping of an architectural register, or as the previous
   mapping held by one in-flight ROB entry for release at commit. Anything
   else is a leak (never freed) or a double mapping (freed twice). *)
let check_rf_conservation p =
  let rob = Pipeline.Debug.rob p in
  let audit ~name (rf : Regfile.t) map select =
    let owner = Array.make rf.Regfile.size (-2) in
    (* owner codes: -2 unclaimed, arch index >= 0, ROB entry as -(3+idx) *)
    let describe = function
      | o when o >= 0 -> Printf.sprintf "arch r%d" o
      | o -> Printf.sprintf "ROB entry %d" (-o - 3)
    in
    let claim p_reg who =
      if p_reg < 0 || p_reg >= rf.Regfile.size then
        fail p ~invariant:"rf-conservation" "%s file: %s maps to p%d, out of \
                                             range" name (describe who) p_reg;
      if rf.Regfile.free.(p_reg) then
        fail p ~invariant:"rf-conservation"
          "%s register p%d is on the free list but %s still claims it" name
          p_reg (describe who);
      if owner.(p_reg) <> -2 then
        fail p ~invariant:"rf-conservation"
          "%s register p%d claimed twice: by %s and by %s" name p_reg
          (describe owner.(p_reg)) (describe who);
      owner.(p_reg) <- who
    in
    Array.iteri (fun arch p_reg -> claim p_reg arch) map;
    Rob.iter_in_flight rob (fun idx ->
        match select (Rob.old_phys_of rob idx) with
        | Some p_reg -> claim p_reg (-(3 + idx))
        | None -> ());
    let claimed =
      Array.fold_left (fun n o -> if o <> -2 then n + 1 else n) 0 owner
    in
    if claimed <> Regfile.live_count rf then
      fail p ~invariant:"rf-conservation"
        "%s file: %d registers claimed by the map and in-flight entries, \
         but %d are allocated — registers leaked"
        name claimed (Regfile.live_count rf);
    let free =
      Array.fold_left (fun n f -> if f then n + 1 else n) 0 rf.Regfile.free
    in
    if free <> rf.Regfile.free_count then
      fail p ~invariant:"rf-free-count"
        "%s file free_count says %d but the free list holds %d" name
        rf.Regfile.free_count free
  in
  audit ~name:"int" (Pipeline.Debug.int_rf p) (Pipeline.Debug.int_map p)
    (function Rob.Int_dest q -> Some q | Rob.No_dest | Rob.Fp_dest _ -> None);
  audit ~name:"fp" (Pipeline.Debug.fp_rf p) (Pipeline.Debug.fp_map p)
    (function Rob.Fp_dest q -> Some q | Rob.No_dest | Rob.Int_dest _ -> None)

(* --- speculation: wrong-path confinement and squash completeness -------- *)

(* DESIGN.md §14: wrong-path work is confined to an open episode. While
   no mispredict is outstanding, every in-flight entry must be
   correct-path — a squash that left a [wp] entry behind would commit
   it. While an episode is open, the [wp] flag must be exactly the
   predicate "younger than the blocked branch": the squash walk stops at
   the first non-wp tail entry, so a mismarked entry either survives the
   squash or takes a correct-path instruction with it. *)
let check_speculation p =
  let rob = Pipeline.Debug.rob p in
  let wp_mode = Pipeline.Debug.wp_mode p in
  let blocked = Pipeline.Debug.blocked_sn p in
  Rob.iter_in_flight rob (fun idx ->
      let wp = Rob.is_wp rob idx in
      if not wp_mode then begin
        if wp then
          fail p ~invariant:"wp-confined"
            "ROB entry %d is wrong-path but no episode is open — the squash \
             left it behind"
            idx
      end
      else begin
        let sn = (Rob.dyn rob idx).Sdiq_isa.Exec.sn in
        if wp <> (sn > blocked) then
          fail p ~invariant:"wp-marking"
            "ROB entry %d has sn %d against blocked_sn %d but wp=%b" idx sn
            blocked wp
      end)

(* --- IQ/ROB linkage ------------------------------------------------------ *)

(* Entry conservation across squashes: every live IQ slot belongs to an
   in-flight ROB entry whose back-pointer returns to it, and every
   dispatched-not-yet-issued entry still owns its slot. A squash that
   forgets to free an IQ slot (the entry's ROB line is popped, the CAM
   entry stays live) shows up here as a slot pointing at a dead entry —
   in hardware it would wake, issue, and write back a ghost. *)
let check_iq_rob_linkage p =
  let iq = Pipeline.Debug.iq p in
  let rob = Pipeline.Debug.rob p in
  for s = 0 to iq.Iq.active_size - 1 do
    if Iq.slot_valid iq s then begin
      let idx = Iq.slot_rob_idx iq s in
      if (Rob.dyn rob idx).Sdiq_isa.Exec.sn < 0 then
        fail p ~invariant:"iq-rob-linkage"
          "IQ slot %d points at ROB entry %d, which is not in flight — a \
           squash or commit left a stale entry live"
          s idx;
      if Rob.iq_slot rob idx <> s then
        fail p ~invariant:"iq-rob-linkage"
          "IQ slot %d points at ROB entry %d, whose back-pointer is slot %d"
          s idx (Rob.iq_slot rob idx)
    end
  done;
  Rob.iter_in_flight rob (fun idx ->
      if Rob.state rob idx = Rob.Dispatched then begin
        let s = Rob.iq_slot rob idx in
        if s < 0 || (not (Iq.slot_valid iq s)) || Iq.slot_rob_idx iq s <> idx
        then
          fail p ~invariant:"iq-rob-linkage"
            "dispatched ROB entry %d does not own a live IQ slot (slot %d)"
            idx s
      end)

(* --- load/store queue ---------------------------------------------------- *)

(* The forwarding search depends on allocation (program) order and on
   live back-pointers; speculative allocation plus tail squashes make
   both easy to corrupt silently, so recount everything: ages strictly
   increase oldest-to-youngest, every slot links to an in-flight memory
   entry and back, the kind and wp flags agree with the ROB, and the
   entry count matches both the queue's own field and the number of
   in-flight ROB entries holding LSQ slots. *)
let check_lsq p =
  let lsq = Pipeline.Debug.lsq p in
  let rob = Pipeline.Debug.rob p in
  let n = ref 0 in
  let prev_sn = ref (-1) in
  Lsq.iter_oldest_first lsq (fun slot rob_idx ->
      incr n;
      let d = Rob.dyn rob rob_idx in
      if d.Sdiq_isa.Exec.sn < 0 then
        fail p ~invariant:"lsq-rob-linkage"
          "LSQ slot %d points at ROB entry %d, which is not in flight" slot
          rob_idx;
      if Rob.lsq_slot rob rob_idx <> slot then
        fail p ~invariant:"lsq-rob-linkage"
          "LSQ slot %d points at ROB entry %d, whose back-pointer is %d" slot
          rob_idx
          (Rob.lsq_slot rob rob_idx);
      if d.Sdiq_isa.Exec.sn <= !prev_sn then
        fail p ~invariant:"lsq-age-order"
          "LSQ entry with sn %d follows sn %d — allocation order broken"
          d.Sdiq_isa.Exec.sn !prev_sn;
      prev_sn := d.Sdiq_isa.Exec.sn;
      if
        Lsq.is_store lsq slot
        <> Sdiq_isa.Instr.is_store d.Sdiq_isa.Exec.instr
      then
        fail p ~invariant:"lsq-kind"
          "LSQ slot %d store flag disagrees with ROB entry %d" slot rob_idx;
      if Lsq.is_wp lsq slot <> Rob.is_wp rob rob_idx then
        fail p ~invariant:"lsq-wp-marking"
          "LSQ slot %d wp flag disagrees with ROB entry %d" slot rob_idx);
  if !n <> Lsq.count lsq then
    fail p ~invariant:"lsq-count" "count field says %d entries, recount finds %d"
      (Lsq.count lsq) !n;
  let mem = ref 0 in
  Rob.iter_in_flight rob (fun idx ->
      if Rob.lsq_slot rob idx >= 0 then incr mem);
  if !mem <> Lsq.count lsq then
    fail p ~invariant:"lsq-count"
      "%d in-flight ROB entries hold LSQ slots but the queue counts %d" !mem
      (Lsq.count lsq)

(* --- wakeup accounting -------------------------------------------------- *)

let operand_exposure (iq : Iq.t) =
  let present = ref 0 and waiting = ref 0 and pred_waiting = ref 0 in
  for s = 0 to iq.Iq.size - 1 do
    if Iq.slot_valid iq s then
      for j = 0 to 1 do
        if Iq.op_present iq s j then begin
          incr present;
          if not (Iq.op_ready iq s j) then begin
            incr waiting;
            if Iq.op_pred iq s j then incr pred_waiting
          end
        end
      done
  done;
  (!present, !waiting, !pred_waiting)

(* Ready-prediction soundness (DESIGN.md §16): under [Sched.Load_delay]
   a waiting operand carries the predicted-ready mark exactly when its
   producer is not a load — loads have non-deterministic latency, so
   suppressing their consumers' comparisons would be a guess, not a
   prediction. The producer's physical tag is still allocated while the
   operand waits, so [Pipeline.Debug.tag_is_load] is current. Under
   non-suppressing policies no mark may exist at all (the rename stage
   never sets one). A mark planted on a load-fed operand — or cleared
   from a non-load-fed one — is precisely what [Iq.Raw.set_pred]
   sabotage does, and it must be caught here before the energy books
   credit a suppression the hardware could not have justified. *)
let check_pred_soundness p ~suppressing =
  let iq = Pipeline.Debug.iq p in
  for s = 0 to iq.Iq.size - 1 do
    if Iq.slot_valid iq s then
      for j = 0 to 1 do
        if Iq.op_present iq s j && not (Iq.op_ready iq s j) then begin
          let pred = Iq.op_pred iq s j in
          if not suppressing then begin
            if pred then
              fail p ~invariant:"wakeup-pred-sound"
                "slot %d operand %d is marked predicted-ready under a \
                 non-suppressing scheduler"
                s j
          end
          else begin
            let from_load = Pipeline.Debug.tag_is_load p (Iq.op_tag iq s j) in
            if pred && from_load then
              fail p ~invariant:"wakeup-pred-sound"
                "slot %d operand %d waits on load-produced tag %d yet is \
                 marked predicted-ready — its wakeup would be suppressed on \
                 a guess"
                s j (Iq.op_tag iq s j);
            if (not pred) && not from_load then
              fail p ~invariant:"wakeup-pred-sound"
                "slot %d operand %d waits on fixed-latency tag %d but lost \
                 its predicted-ready mark — its comparison is priced gated \
                 instead of suppressed"
                s j (Iq.op_tag iq s j)
          end
        end
      done
  done

let check_wakeups c p =
  let iq = Pipeline.Debug.iq p in
  let suppressing =
    Sched.suppresses_predicted (Pipeline.Debug.sched p)
  in
  (* Nothing touches the queue between the end of the previous cycle and
     this cycle's writeback broadcast, so the exposure recorded then is
     the snapshot the CAM ports compared against now. *)
  let d_tags = iq.Iq.broadcasts - c.prev_broadcasts in
  let d_naive = iq.Iq.wakeups_naive - c.prev_naive in
  let d_nonempty = iq.Iq.wakeups_nonempty - c.prev_nonempty in
  let d_gated = iq.Iq.wakeups_gated - c.prev_gated in
  let d_suppressed = iq.Iq.wakeups_suppressed - c.prev_suppressed in
  if d_naive <> 2 * Iq.size iq * d_tags then
    fail p ~invariant:"wakeup-naive"
      "naive wakeups grew by %d for %d tags over %d slots (expected %d)"
      d_naive d_tags (Iq.size iq)
      (2 * Iq.size iq * d_tags);
  if d_nonempty <> c.prev_present_ops * d_tags then
    fail p ~invariant:"wakeup-nonempty"
      "nonEmpty wakeups grew by %d for %d tags against %d present operands \
       (expected %d)"
      d_nonempty d_tags c.prev_present_ops
      (c.prev_present_ops * d_tags);
  (* Under a suppressing scheduler the waiting operands split between the
     gated and suppressed ledgers along the predicted-ready mark; every
     other policy must book them all gated and none suppressed. *)
  let expect_gated =
    if suppressing then (c.prev_waiting_ops - c.prev_pred_waiting_ops) * d_tags
    else c.prev_waiting_ops * d_tags
  in
  let expect_suppressed =
    if suppressing then c.prev_pred_waiting_ops * d_tags else 0
  in
  if d_gated <> expect_gated then
    fail p ~invariant:"wakeup-gated"
      "gated wakeups grew by %d for %d tags against %d waiting (%d \
       predicted-ready) operands (expected %d)"
      d_gated d_tags c.prev_waiting_ops c.prev_pred_waiting_ops expect_gated;
  if d_suppressed <> expect_suppressed then
    fail p ~invariant:"wakeup-suppressed"
      "suppressed wakeups grew by %d for %d tags against %d predicted-ready \
       waiting operands (expected %d)"
      d_suppressed d_tags c.prev_pred_waiting_ops expect_suppressed;
  c.prev_broadcasts <- iq.Iq.broadcasts;
  c.prev_naive <- iq.Iq.wakeups_naive;
  c.prev_nonempty <- iq.Iq.wakeups_nonempty;
  c.prev_gated <- iq.Iq.wakeups_gated;
  c.prev_suppressed <- iq.Iq.wakeups_suppressed;
  check_pred_soundness p ~suppressing;
  let present, waiting, pred_waiting = operand_exposure iq in
  c.prev_present_ops <- present;
  c.prev_waiting_ops <- waiting;
  c.prev_pred_waiting_ops <- pred_waiting

(* --- select-scan accounting ---------------------------------------------- *)

(* The per-cycle growth of the scan integral can never exceed the
   policy's own bound: [oldest_first] and [load_delay] sweep at most the
   whole ring, [nskip ~n] at most [n] slots. The ring can only have been
   at most [Iq.size] entries long when the sweep ran (resizing happens
   after issue), so the bound is evaluated at full size — tight enough
   to catch a runaway sweep, immune to end-of-cycle resizes. *)
let check_scan c p =
  let stats = Pipeline.Debug.stats p in
  let iq = Pipeline.Debug.iq p in
  let d_scan = stats.Stats.iq_scan_entries - c.prev_scan_entries in
  let bound = Sched.scan_bound (Pipeline.Debug.sched p) ~active:(Iq.size iq) in
  if d_scan < 0 || d_scan > bound then
    fail p ~invariant:"iq-scan-bound"
      "select scan examined %d slots this cycle; the policy admits at most \
       %d"
      d_scan bound;
  c.prev_scan_entries <- stats.Stats.iq_scan_entries

(* --- entry point -------------------------------------------------------- *)

let check c p =
  (* Linkage first: a squash leak shows up as a stale slot pointing at a
     dead ROB entry, which can also strand [head]; auditing linkage
     before IQ structure makes the diagnosis name the root cause. *)
  check_iq_rob_linkage p;
  check_iq p;
  check_wakeup_state p;
  check_dispatch_window p;
  check_power_integrals c p;
  check_rob c p;
  check_rf_conservation p;
  check_speculation p;
  check_lsq p;
  check_wakeups c p;
  check_scan c p;
  c.cycles_checked <- c.cycles_checked + 1

(* A fresh checker subscribed to an existing pipeline's event bus. The
   audit runs on [Cycle_end] — the last event of each cycle, delivered
   after the cycle's statistics are folded in — so the per-cycle
   power-integral recount sees the cycle's final machine state. *)
let attach p =
  let c = create () in
  Pipeline.on_cycle_end ~name:"invariant-checker" p (check c);
  c
