(* The issue queue (Section 3.1).

   A non-collapsible circular buffer of [size] entries organised in banks
   of [bank_size]: instructions dispatch at [tail] in program order, issue
   from any slot, and an issued slot becomes a hole until [head] sweeps
   past it (no compaction, as in Folegnani & González and Buyuktosunoglu
   et al. — compaction costs too much energy). The CAM and RAM arrays of a
   bank are turned off while the bank holds no valid entry.

   The paper's addition is a second head pointer [new_head]: the compiler
   communicates [max_new_range], the number of slots the *next program
   region* may occupy, and dispatch is limited so the slot span between
   [new_head] and [tail] (holes included — the queue cannot collapse them)
   never exceeds it. When the instruction under [new_head] issues, the
   pointer moves towards the tail until it reaches a non-empty slot or
   becomes the tail (Figure 2), freeing span for more dispatch.

   Wakeup accounting implements both schemes compared in the paper:
   [wakeups_naive] charges every operand CAM in the queue on every result
   broadcast; [wakeups_gated] charges only present-and-not-ready operands
   of valid entries (Folegnani & González gating, assumed by the paper's
   example and by all techniques evaluated).

   Storage is flat (DESIGN.md §13): per-slot state lives in unboxed
   byte/int arrays instead of an array of entry records, and per-bank
   occupancy is maintained incrementally ([bank_live]) so the
   powered-bank mask costs O(banks), not O(size), per cycle.

   The queue is event-driven (DESIGN.md §13.1): nothing sweeps the ring
   per broadcast or per select. Each waiting operand sits on its
   producer tag's waiter list, so a broadcast touches only the operands
   it wakes; the Figure 8 charges are products of incrementally kept
   operand counts and the group size, which equal the per-operand sums
   a CAM sweep would take; and the slots whose operands are all ready
   form a ready set that select orders by age. *)

type t = {
  size : int;
  bank_size : int;
  mutable active_size : int;
      (* hardware-resizable ring: the Abella/Buyuktosunoglu-style adaptive
         scheme physically restricts the circular buffer to the first
         [active_size] slots (whole banks), so the remaining banks hold no
         entries and stay off; the software scheme leaves this at [size] *)
  (* flat per-slot state: [valid] and the operand flags are bytes (0/1),
     tags and ROB back-pointers are unboxed ints; operand [j] of slot [s]
     lives at index [2*s + j] *)
  valid : Bytes.t;
  rob_idx : int array;
  op_present : Bytes.t;
  op_ready : Bytes.t;
  op_pred : Bytes.t;
      (* predicted-ready: the operand's producer has a deterministic
         latency, so a load-delay scheduler suppresses its CAM port
         (energy only — the operand still wakes on a tag match) *)
  op_tag : int array;
  (* event-driven wakeup: operand [o] waiting on tag [g] is linked into
     [g]'s doubly linked waiter list ([wait_head.(g)], then [wait_next],
     with [wait_prev] for O(1) unlinking; -1 ends a list). An operand is
     linked exactly while its slot is valid and it is present and not
     ready. *)
  wait_head : int array; (* per tag *)
  wait_next : int array; (* per operand *)
  wait_prev : int array; (* per operand; -1 on a list head *)
  slot_waiting : Bytes.t; (* waiting operands per slot, 0..2 *)
  mutable present_ops : int; (* present operands of valid slots *)
  mutable waiting_ops : int; (* ... of those, not ready *)
  mutable pred_waiting_ops : int; (* ... of those, predicted-ready *)
  (* ready set: the valid slots with no waiting operand, unordered, in
     [ready.(0 .. nready-1)]; [ready_pos] maps a slot to its position
     there, -1 when absent *)
  ready : int array;
  ready_pos : int array;
  mutable nready : int;
  mutable scanned : int; (* slots the last [select_into] examined *)
  bank_live : int array; (* valid entries per bank, kept incrementally *)
  bank_of : int array; (* slot -> bank, precomputed (no hot-path division) *)
  mutable live_mask : int; (* bit b set iff bank_live.(b) > 0 *)
  mutable live_banks : int; (* popcount of live_mask, kept incrementally *)
  mutable head : int;
  mutable new_head : int;
  mutable tail : int;
  mutable count : int;      (* valid entries *)
  mutable new_span : int;   (* slots between new_head and tail, holes incl. *)
  mutable suppress_pred : bool;
      (* load-delay policy active: predicted-ready waiting operands pay
         no CAM comparison (counted in [wakeups_suppressed] instead of
         [wakeups_gated]) *)
  (* event counters for the power model *)
  mutable wakeups_gated : int;
  mutable wakeups_suppressed : int;
  mutable wakeups_nonempty : int;
  mutable wakeups_naive : int;
  mutable dispatch_ram_writes : int;
  mutable dispatch_cam_writes : int;
  mutable issue_reads : int;
  mutable broadcasts : int;
}

let create ~size ~bank_size ~tags =
  if size <= 0 || bank_size <= 0 || bank_size > size || tags < 0 then
    invalid_arg "Iq.create";
  {
    size;
    bank_size;
    active_size = size;
    valid = Bytes.make size '\000';
    rob_idx = Array.make size (-1);
    op_present = Bytes.make (2 * size) '\000';
    op_ready = Bytes.make (2 * size) '\000';
    op_pred = Bytes.make (2 * size) '\000';
    op_tag = Array.make (2 * size) (-1);
    wait_head = Array.make tags (-1);
    wait_next = Array.make (2 * size) (-1);
    wait_prev = Array.make (2 * size) (-1);
    slot_waiting = Bytes.make size '\000';
    present_ops = 0;
    waiting_ops = 0;
    pred_waiting_ops = 0;
    ready = Array.make size 0;
    ready_pos = Array.make size (-1);
    nready = 0;
    scanned = 0;
    bank_live = Array.make ((size + bank_size - 1) / bank_size) 0;
    bank_of = Array.init size (fun s -> s / bank_size);
    live_mask = 0;
    live_banks = 0;
    head = 0;
    new_head = 0;
    tail = 0;
    count = 0;
    new_span = 0;
    suppress_pred = false;
    wakeups_gated = 0;
    wakeups_suppressed = 0;
    wakeups_nonempty = 0;
    wakeups_naive = 0;
    dispatch_ram_writes = 0;
    dispatch_cam_writes = 0;
    issue_reads = 0;
    broadcasts = 0;
  }

let size t = t.size
let occupancy t = t.count
let is_empty t = t.count = 0

(* --- flat-slot accessors ------------------------------------------------- *)

let slot_valid t s = Bytes.unsafe_get t.valid s <> '\000'
let slot_rob_idx t s = Array.unsafe_get t.rob_idx s
let op_present t s j = Bytes.unsafe_get t.op_present ((2 * s) + j) <> '\000'
let op_ready t s j = Bytes.unsafe_get t.op_ready ((2 * s) + j) <> '\000'
let op_pred t s j = Bytes.unsafe_get t.op_pred ((2 * s) + j) <> '\000'
let op_tag t s j = Array.unsafe_get t.op_tag ((2 * s) + j)

(* All present operands ready (and the slot live): issueable. *)
let slot_ready t s =
  slot_valid t s
  && ((not (op_present t s 0)) || op_ready t s 0)
  && ((not (op_present t s 1)) || op_ready t s 1)

(* The tail slot is free unless the buffer has wrapped onto the head; a
   valid slot under the tail means the (non-collapsible) queue is full. *)
let is_full t = slot_valid t t.tail

(* Slots the next program region currently occupies (holes included). *)
let new_region_span t = t.new_span

(* Start a new program region: pin [new_head] to the tail (Section 3.2:
   the special NOOP's value becomes the new [max_new_range] and subsequent
   dispatches belong to the new region). *)
let start_new_region t =
  t.new_head <- t.tail;
  t.new_span <- 0

let set_slot_live t slot =
  Bytes.unsafe_set t.valid slot '\001';
  let b = Array.unsafe_get t.bank_of slot in
  let c = t.bank_live.(b) + 1 in
  t.bank_live.(b) <- c;
  if c = 1 then begin
    t.live_mask <- t.live_mask lor (1 lsl b);
    t.live_banks <- t.live_banks + 1
  end

let set_slot_free t slot =
  Bytes.unsafe_set t.valid slot '\000';
  let b = Array.unsafe_get t.bank_of slot in
  let c = t.bank_live.(b) - 1 in
  t.bank_live.(b) <- c;
  if c = 0 then begin
    t.live_mask <- t.live_mask land lnot (1 lsl b);
    t.live_banks <- t.live_banks - 1
  end

(* --- event-driven wakeup state ------------------------------------------- *)

(* The list and ready-set links are followed with bounds-checked
   accesses: a bookkeeping bug then raises instead of corrupting memory,
   and the invariant checker's recount ([iq-wakeup-state]) names it. *)

let ready_add t slot =
  let n = t.nready in
  t.ready.(n) <- slot;
  t.ready_pos.(slot) <- n;
  t.nready <- n + 1

let ready_remove t slot =
  let i = t.ready_pos.(slot) in
  if i >= 0 then begin
    let n = t.nready - 1 in
    let last = t.ready.(n) in
    t.ready.(i) <- last;
    t.ready_pos.(last) <- i;
    t.ready_pos.(slot) <- -1;
    t.nready <- n
  end

(* Count a freshly written operand [o] and, when it waits, link it at
   the head of its tag's waiter list. Returns 1 when it waits. *)
let enter_operand t o =
  t.present_ops <- t.present_ops + 1;
  if Bytes.unsafe_get t.op_ready o <> '\000' then 0
  else begin
    t.waiting_ops <- t.waiting_ops + 1;
    if Bytes.unsafe_get t.op_pred o <> '\000' then
      t.pred_waiting_ops <- t.pred_waiting_ops + 1;
    let g = Array.unsafe_get t.op_tag o in
    let h = t.wait_head.(g) in
    t.wait_next.(o) <- h;
    t.wait_prev.(o) <- -1;
    if h >= 0 then t.wait_prev.(h) <- o;
    t.wait_head.(g) <- o;
    1
  end

(* A slot leaves the queue (issue or squash): uncount its operands,
   unlink the ones still waiting, and drop it from the ready set. The
   pipeline only issues ready slots, so there the unlinking is for
   squashed consumers — including those of an older producer that
   survives the squash and will still broadcast. *)
let leave_slot t slot =
  let o0 = 2 * slot in
  for o = o0 to o0 + 1 do
    if Bytes.unsafe_get t.op_present o <> '\000' then begin
      t.present_ops <- t.present_ops - 1;
      if Bytes.unsafe_get t.op_ready o = '\000' then begin
        t.waiting_ops <- t.waiting_ops - 1;
        if Bytes.unsafe_get t.op_pred o <> '\000' then
          t.pred_waiting_ops <- t.pred_waiting_ops - 1;
        let p = t.wait_prev.(o) in
        let n = t.wait_next.(o) in
        if p >= 0 then t.wait_next.(p) <- n
        else t.wait_head.(Array.unsafe_get t.op_tag o) <- n;
        if n >= 0 then t.wait_prev.(n) <- p
      end
    end
  done;
  Bytes.unsafe_set t.slot_waiting slot '\000';
  ready_remove t slot

let tags t = Array.length t.wait_head

(* Dispatch into the tail slot with at most two renamed sources given
   positionally — the zero-allocation path the pipeline uses. [nsrc] is
   the instruction's true source count (capped at 2 for the CAM write
   accounting, matching the two physical operand CAMs). *)
let dispatch_flat t ~rob_idx ~nsrc ~tag0 ~ready0 ~pred0 ~tag1 ~ready1 ~pred1 =
  if is_full t then invalid_arg "Iq.dispatch: full";
  let ntags = tags t in
  if
    (nsrc >= 1 && (not ready0) && (tag0 < 0 || tag0 >= ntags))
    || (nsrc >= 2 && (not ready1) && (tag1 < 0 || tag1 >= ntags))
  then invalid_arg "Iq.dispatch: waiting tag out of range";
  let slot = t.tail in
  set_slot_live t slot;
  Array.unsafe_set t.rob_idx slot rob_idx;
  let o = 2 * slot in
  Bytes.unsafe_set t.op_present o '\000';
  Bytes.unsafe_set t.op_present (o + 1) '\000';
  Bytes.unsafe_set t.op_ready o '\000';
  Bytes.unsafe_set t.op_ready (o + 1) '\000';
  Bytes.unsafe_set t.op_pred o '\000';
  Bytes.unsafe_set t.op_pred (o + 1) '\000';
  Array.unsafe_set t.op_tag o (-1);
  Array.unsafe_set t.op_tag (o + 1) (-1);
  let waiting = ref 0 in
  if nsrc >= 1 then begin
    Bytes.unsafe_set t.op_present o '\001';
    Array.unsafe_set t.op_tag o tag0;
    if ready0 then Bytes.unsafe_set t.op_ready o '\001'
    else if pred0 then Bytes.unsafe_set t.op_pred o '\001';
    waiting := enter_operand t o
  end;
  if nsrc >= 2 then begin
    Bytes.unsafe_set t.op_present (o + 1) '\001';
    Array.unsafe_set t.op_tag (o + 1) tag1;
    if ready1 then Bytes.unsafe_set t.op_ready (o + 1) '\001'
    else if pred1 then Bytes.unsafe_set t.op_pred (o + 1) '\001';
    waiting := !waiting + enter_operand t (o + 1)
  end;
  Bytes.unsafe_set t.slot_waiting slot (Char.unsafe_chr !waiting);
  if !waiting = 0 then ready_add t slot;
  t.dispatch_cam_writes <-
    t.dispatch_cam_writes + (if nsrc < 2 then nsrc else 2);
  t.dispatch_ram_writes <- t.dispatch_ram_writes + 1;
  t.tail <- (if t.tail + 1 = t.active_size then 0 else t.tail + 1);
  t.count <- t.count + 1;
  t.new_span <- t.new_span + 1;
  slot

(* List-based dispatch, for tests and callers off the hot path. [ops]
   lists (tag, ready) for the register sources; entries beyond the two
   operand CAMs are dropped. Returns the slot index. *)
let dispatch t ~rob_idx ~ops =
  match ops with
  | [] ->
    dispatch_flat t ~rob_idx ~nsrc:0 ~tag0:(-1) ~ready0:false ~pred0:false
      ~tag1:(-1) ~ready1:false ~pred1:false
  | [ (tag0, ready0) ] ->
    dispatch_flat t ~rob_idx ~nsrc:1 ~tag0 ~ready0 ~pred0:false ~tag1:(-1)
      ~ready1:false ~pred1:false
  | (tag0, ready0) :: (tag1, ready1) :: _ ->
    dispatch_flat t ~rob_idx ~nsrc:2 ~tag0 ~ready0 ~pred0:false ~tag1 ~ready1
      ~pred1:false

(* Remove an issued instruction from [slot], updating both head pointers
   exactly as the hardware does. Pointer sweeps are window-bounded rather
   than tail-guarded: comparing against [tail] alone cannot distinguish
   "reached the free space" from "started on a completely full ring"
   (head = tail both when empty and when wrapped full). [new_head] sweeps
   within the region's [new_span] slots; [head] sweeps to the first valid
   entry anywhere, which must exist while [count > 0]. *)
let issue t slot =
  if not (slot_valid t slot) then invalid_arg "Iq.issue: empty slot";
  leave_slot t slot;
  set_slot_free t slot;
  Array.unsafe_set t.rob_idx slot (-1);
  t.count <- t.count - 1;
  t.issue_reads <- t.issue_reads + 1;
  if slot = t.new_head then begin
    let span = t.new_span in
    let p = ref t.new_head in
    let steps = ref 0 in
    while !steps < span && not (slot_valid t !p) do
      p := (if !p + 1 = t.active_size then 0 else !p + 1);
      incr steps
    done;
    if !steps >= span then begin
      t.new_head <- t.tail;
      t.new_span <- t.new_span - span
    end
    else begin
      t.new_head <- !p;
      t.new_span <- t.new_span - !steps
    end
  end;
  if slot = t.head then
    if t.count = 0 then t.head <- t.tail
    else begin
      let p = ref t.head in
      while not (slot_valid t !p) do
        p := (if !p + 1 = t.active_size then 0 else !p + 1)
      done;
      t.head <- !p
    end

(* Squash removal: free [slot] with no issue accounting and no pointer
   sweeps. A squash discards a contiguous ring suffix (the wrong-path
   dispatches behind the mispredicted branch), so the pipeline rewinds
   [tail], [head] and [new_head] once for the whole suffix instead of
   sweeping per slot; selection never reads a freed slot in between. *)
let squash_slot t slot =
  if not (slot_valid t slot) then invalid_arg "Iq.squash_slot: empty slot";
  leave_slot t slot;
  set_slot_free t slot;
  Array.unsafe_set t.rob_idx slot (-1);
  t.count <- t.count - 1

(* Broadcast the destination tags of all results completing this cycle.
   All tags see the same pre-wakeup snapshot, as the parallel CAM ports do
   in hardware: in Figure 1(c) instructions a and b complete together and
   each causes 6 wakeups even though they wake some of the same operands.
   Returns how many operands woke.

   Accounting, per tag of the group: the naive scheme compares both
   operand CAMs of every slot; nonEmpty every present operand of a valid
   entry; gated only the present-and-not-ready ones, and under load-delay
   suppression the predicted-ready among those are booked as suppressed
   instead. The snapshot is the operand counts before any wakeup, so each
   charge is that count times [ntags] — the same integer a per-operand
   CAM sweep sums. Suppression is energy accounting only: a
   predicted-ready operand still wakes on its tag.

   Wakeup itself walks each tag's waiter list, so it costs the operands
   woken, not the queue's occupancy. [broadcast_into] is the
   scratch-array core: the first [ntags] elements of [tags] are the group
   (the pipeline reuses one array across cycles; nothing is retained). *)
let broadcast_into t tags ntags =
  if ntags = 0 then 0
  else begin
    t.broadcasts <- t.broadcasts + ntags;
    t.wakeups_naive <- t.wakeups_naive + (2 * t.size * ntags);
    t.wakeups_nonempty <- t.wakeups_nonempty + (t.present_ops * ntags);
    let sup = if t.suppress_pred then t.pred_waiting_ops else 0 in
    t.wakeups_gated <- t.wakeups_gated + ((t.waiting_ops - sup) * ntags);
    t.wakeups_suppressed <- t.wakeups_suppressed + (sup * ntags);
    let matched = ref 0 in
    for k = 0 to ntags - 1 do
      let g = Array.unsafe_get tags k in
      let o = ref t.wait_head.(g) in
      t.wait_head.(g) <- -1;
      while !o >= 0 do
        let op = !o in
        o := t.wait_next.(op);
        Bytes.unsafe_set t.op_ready op '\001';
        incr matched;
        t.waiting_ops <- t.waiting_ops - 1;
        if Bytes.unsafe_get t.op_pred op <> '\000' then
          t.pred_waiting_ops <- t.pred_waiting_ops - 1;
        let s = op lsr 1 in
        let w = Char.code (Bytes.unsafe_get t.slot_waiting s) - 1 in
        Bytes.unsafe_set t.slot_waiting s (Char.unsafe_chr (w land 0xff));
        if w = 0 then ready_add t s
      done
    done;
    !matched
  end

let broadcast_many t tags = broadcast_into t (Array.of_list tags) (List.length tags)

let broadcast t tag = broadcast_many t [ tag ]

(* Ring distance from [head] of the youngest valid entry (count > 0):
   every valid entry lies in the circular range [head, tail), so it is
   the first valid slot walking back from [tail - 1]; only the holes
   left by young entries that already issued are stepped over. *)
let youngest_distance t =
  let active = t.active_size in
  let p = ref (if t.tail = 0 then active - 1 else t.tail - 1) in
  let steps = ref 1 in
  while !steps < active && Bytes.unsafe_get t.valid !p = '\000' do
    p := (if !p = 0 then active - 1 else !p - 1);
    incr steps
  done;
  let d = !p - t.head in
  if d < 0 then d + active else d

(* Select: write into [cands] the ready slots whose ring distance from
   [head] is below [bound] (clamped to the active ring), oldest first,
   and return how many. [scanned] is set to the number of slots an
   oldest-first select logic examines to find them: it walks from [head]
   until it has passed every valid entry or exhausted the bound, i.e.
   [min bound (youngest_distance + 1)], 0 when empty. The ready set is
   unordered, so candidates are sorted by distance (insertion sort: the
   set is small and mostly in age order already). Slots are re-checked
   for validity so a corrupted queue reaches the invariant checker
   instead of failing in [issue]. *)
let select_into t ~bound cands =
  if Array.length cands < t.size then invalid_arg "Iq.select_into: cands";
  let active = t.active_size in
  let bound = if bound < active then bound else active in
  if t.count = 0 then begin
    t.scanned <- 0;
    0
  end
  else begin
    let span = youngest_distance t + 1 in
    t.scanned <- (if span < bound then span else bound);
    let head = t.head in
    let n = ref 0 in
    for i = 0 to t.nready - 1 do
      let s = Array.unsafe_get t.ready i in
      if Bytes.unsafe_get t.valid s <> '\000' then begin
        let d = if s >= head then s - head else s - head + active in
        if d < bound then begin
          let j = ref !n in
          while !j > 0 && Array.unsafe_get cands (!j - 1) > d do
            Array.unsafe_set cands !j (Array.unsafe_get cands (!j - 1));
            decr j
          done;
          Array.unsafe_set cands !j d;
          incr n
        end
      end
    done;
    for i = 0 to !n - 1 do
      let s = head + Array.unsafe_get cands i in
      Array.unsafe_set cands i (if s >= active then s - active else s)
    done;
    !n
  end

(* Fold over valid entries from oldest (head) to youngest (tail), the order
   the select logic prefers. The callback receives the slot index; use the
   slot accessors for its state. *)
let fold_oldest_first t f acc =
  let acc = ref acc in
  let pos = ref t.head in
  let remaining = ref t.count in
  let steps = ref 0 in
  while !remaining > 0 && !steps < t.active_size do
    if slot_valid t !pos then begin
      acc := f !acc !pos;
      decr remaining
    end;
    pos := (if !pos + 1 = t.active_size then 0 else !pos + 1);
    incr steps
  done;
  !acc

(* Adaptive resizing (the abella comparison point): restrict or extend the
   ring to [target] slots, whole banks at a time. A resize only takes
   effect when it is safe — shrinking needs every live entry and pointer
   inside the surviving region; growing needs the live region not to wrap
   (so the modulus change keeps it contiguous). Callers simply retry every
   cycle, which models the scheme's inherent adjustment lag. Returns true
   when the resize (or part of it, one step toward the target) applied. *)
let resize t target =
  let target =
    let banked = max t.bank_size (min t.size target) in
    banked / t.bank_size * t.bank_size
  in
  if target = t.active_size then false
  else if t.count = 0 then begin
    t.head <- 0;
    t.new_head <- 0;
    t.tail <- 0;
    t.new_span <- 0;
    t.active_size <- target;
    true
  end
  else begin
    (* Any modulus change invalidates [new_span]: the region is the
       circular slot range [new_head, tail), and changing [active_size]
       inserts (grow) or removes (shrink) the run of slots between the
       old boundary and slot 0 — inside the region whenever it wraps.
       Re-derive the span from the pointers under the new modulus; the
       pre-resize span disambiguates [tail = new_head], which means a
       full ring when the span was non-zero and an empty region
       otherwise. *)
    let respan target =
      if t.new_span = 0 then 0
      else (((t.tail - t.new_head - 1) + target) mod target) + 1
    in
    if target > t.active_size then begin
      (* Growing inserts a run of empty slots between the oldest entries
         (at and after [head]) and any wrapped younger ones (before
         [tail]); pointer sweeps skip holes, so circular order is
         preserved. *)
      t.new_span <- respan target;
      t.active_size <- target;
      true
    end
    else begin
      (* Shrinking is safe only once the dropped banks hold nothing and
         all three pointers are inside the surviving region. *)
      let clear =
        ref (t.head < target && t.new_head < target && t.tail < target)
      in
      for s = target to t.active_size - 1 do
        if slot_valid t s then clear := false
      done;
      if !clear then begin
        t.new_span <- respan target;
        t.active_size <- target;
        true
      end
      else false
    end
  end

let active_size t = t.active_size

(* Banks holding at least one valid entry: only these have their CAM/RAM
   arrays powered. *)
let banks t = (t.size + t.bank_size - 1) / t.bank_size

let banks_on_mask t = t.live_mask
let banks_on t = t.live_banks

(* Recount of the powered banks from the raw valid bytes, bypassing the
   incremental [bank_live] counters: the invariant checker audits the
   fast counters against this. *)
let recount_banks_on t =
  let nb = banks t in
  let on = ref 0 in
  for b = 0 to nb - 1 do
    let lo = b * t.bank_size in
    let hi = min t.size (lo + t.bank_size) - 1 in
    let any = ref false in
    for s = lo to hi do
      if slot_valid t s then any := true
    done;
    if !any then incr on
  done;
  !on

(* Test-only state tampering, simulating corruption the invariant
   checker must catch. [set_valid] mutates the raw valid byte with *no*
   bookkeeping (count, bank_live, the ready set and pointers are left
   stale). [set_pred] models a wrong predicted-ready decision at rename:
   it keeps the predicted-waiting count in step with the mark, so only
   the mark's soundness is broken. *)
module Raw = struct
  let set_valid t s v = Bytes.set t.valid s (if v then '\001' else '\000')

  let set_pred t s j v =
    let o = (2 * s) + j in
    if
      slot_valid t s
      && op_present t s j
      && (not (op_ready t s j))
      && op_pred t s j <> v
    then
      t.pred_waiting_ops <- (t.pred_waiting_ops + if v then 1 else -1);
    Bytes.set t.op_pred o (if v then '\001' else '\000')
end
