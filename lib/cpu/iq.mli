(** The issue queue (Section 3.1): a non-collapsible circular buffer in
    banks, with the paper's second head pointer.

    Instructions dispatch at [tail] in program order and issue from any
    slot, leaving holes until [head] sweeps past them. The compiler's
    [max_new_range] limits the slot span between [new_head] and [tail]
    (holes included); when the instruction under [new_head] issues, the
    pointer moves toward the tail until it reaches a non-empty slot or
    becomes the tail (Figure 2).

    Wakeup accounting covers the three schemes of Figure 8: naive (every
    operand CAM, every broadcast), nonEmpty (operands of allocated
    entries), and gated (present-and-not-ready operands only — Folegnani
    & González).

    Slot state is stored flat (DESIGN.md §13): [valid]/operand flags as
    bytes, tags and ROB indices as unboxed int arrays, operand [j] of
    slot [s] at index [2*s + j]. Read per-slot state through the
    [slot_*]/[op_*] accessors.

    The queue is event-driven: waiting operands sit on per-tag waiter
    lists, operand counts are kept incrementally (so the Figure 8
    charges of a broadcast are products, not a sweep), and the slots
    with no waiting operand form a ready set that {!select_into} orders
    by age. *)

type t = {
  size : int;
  bank_size : int;
  mutable active_size : int;
      (** the adaptive scheme physically restricts the ring to this many
          slots (whole banks); the software scheme leaves it at [size] *)
  valid : Bytes.t;
  rob_idx : int array;
  op_present : Bytes.t;
  op_ready : Bytes.t;
  op_pred : Bytes.t;
      (** predicted-ready: producer has deterministic latency, so a
          load-delay scheduler suppresses this operand's CAM comparison
          (energy only — it still wakes on a tag match) *)
  op_tag : int array;
  wait_head : int array;
      (** per physical tag: first operand on its waiter list, -1 if none *)
  wait_next : int array;  (** per operand: next waiter on the same tag *)
  wait_prev : int array;  (** per operand: previous waiter, -1 at the head *)
  slot_waiting : Bytes.t;  (** waiting operands per slot (0..2) *)
  mutable present_ops : int;  (** present operands of valid entries *)
  mutable waiting_ops : int;  (** ... of those, not yet ready *)
  mutable pred_waiting_ops : int;  (** ... of those, predicted-ready *)
  ready : int array;
      (** ready set: the valid slots with no waiting operand, unordered,
          in [ready.(0 .. nready-1)] *)
  ready_pos : int array;  (** slot → position in [ready], -1 if absent *)
  mutable nready : int;
  mutable scanned : int;
      (** slots the last {!select_into} examined (its [Select_scan]) *)
  bank_live : int array;
      (** valid entries per bank, maintained incrementally so the
          powered-bank mask is O(banks) per cycle *)
  bank_of : int array;  (** slot → bank, precomputed *)
  mutable live_mask : int;  (** bit [b] set iff [bank_live.(b) > 0] *)
  mutable live_banks : int;  (** popcount of [live_mask], incremental *)
  mutable head : int;
  mutable new_head : int;
  mutable tail : int;
  mutable count : int;
  mutable new_span : int;
  mutable suppress_pred : bool;
      (** load-delay policy active: predicted-ready waiting operands are
          counted in [wakeups_suppressed] instead of [wakeups_gated] *)
  mutable wakeups_gated : int;
  mutable wakeups_suppressed : int;
  mutable wakeups_nonempty : int;
  mutable wakeups_naive : int;
  mutable dispatch_ram_writes : int;
  mutable dispatch_cam_writes : int;
  mutable issue_reads : int;
  mutable broadcasts : int;
}

(** [tags] is the number of physical tags results broadcast on (the
    pipeline passes both register files, [2 * rf_size]); a waiting
    operand's tag must lie in [0, tags). *)
val create : size:int -> bank_size:int -> tags:int -> t

val size : t -> int
val tags : t -> int
val occupancy : t -> int
val is_empty : t -> bool

(** Full in the non-collapsible sense: the tail slot is occupied. *)
val is_full : t -> bool

(** Slots the current program region occupies, holes included. *)
val new_region_span : t -> int

(** Pin [new_head] to the tail: a new program region begins. *)
val start_new_region : t -> unit

(** Insert at the tail; [ops] are (physical tag, ready) pairs. Returns
    the slot index. Raises [Invalid_argument] when full or when a waiting
    operand's tag is out of range. *)
val dispatch : t -> rob_idx:int -> ops:(int * bool) list -> int

(** Zero-allocation dispatch with the (at most two) renamed sources
    passed positionally; [nsrc] is the true source count. [predN] marks
    a waiting operand as predicted-ready (ignored when [readyN]). *)
val dispatch_flat :
  t ->
  rob_idx:int ->
  nsrc:int ->
  tag0:int ->
  ready0:bool ->
  pred0:bool ->
  tag1:int ->
  ready1:bool ->
  pred1:bool ->
  int

(** Remove an issued instruction, sweeping [head]/[new_head] forward
    exactly as the hardware does. *)
val issue : t -> int -> unit

(** Squash removal: free a slot with no issue accounting and no pointer
    sweeps — a squash discards a contiguous ring suffix, so the caller
    rewinds [tail]/[head]/[new_head] once for the whole suffix. *)
val squash_slot : t -> int -> unit

(** Broadcast all result tags completing this cycle against one snapshot
    (as parallel CAM ports do); returns how many operands woke. Costs
    the operands woken: each tag's waiter list is walked and emptied.
    Tags must lie in [0, tags). *)
val broadcast_many : t -> int list -> int

(** Scratch-array broadcast core: the first [ntags] elements are the
    group. The caller may reuse the array across cycles — nothing is
    retained. *)
val broadcast_into : t -> int array -> int -> int

val broadcast : t -> int -> int

(** Select candidates: writes to [cands] (length at least [size]) the
    ready slots whose ring distance from [head] is below [bound]
    (clamped to the active ring), oldest first, and returns their
    number. Sets [scanned] to [min bound (d + 1)], where [d] is the
    distance of the youngest valid entry (0 when empty) — the slots an
    oldest-first select walk examines. *)
val select_into : t -> bound:int -> int array -> int

(** Fold over valid entries oldest-first (select order); the callback
    receives the slot index. *)
val fold_oldest_first : t -> ('a -> int -> 'a) -> 'a -> 'a

(** {2 Flat-slot accessors} *)

val slot_valid : t -> int -> bool
val slot_rob_idx : t -> int -> int

(** Slot live and all present operands ready. *)
val slot_ready : t -> int -> bool

val op_present : t -> int -> int -> bool
val op_ready : t -> int -> int -> bool
val op_pred : t -> int -> int -> bool
val op_tag : t -> int -> int -> int

val banks : t -> int

(** Banks holding at least one valid entry (the powered ones). *)
val banks_on : t -> int

(** Bitmask of the powered banks (bit [b] set iff bank [b] holds a
    valid entry); [banks_on] is its popcount. Lets observers detect
    per-bank gate/ungate transitions, not just the count. *)
val banks_on_mask : t -> int

(** Recount of the powered banks from the raw valid bytes, ignoring the
    incremental [bank_live] counters — the invariant checker's
    independent audit. *)
val recount_banks_on : t -> int

(** Adaptive resizing toward [target] slots (whole banks): shrinking
    applies only once the dropped banks are empty and all pointers are
    inside the surviving region; growing is always order-preserving.
    Returns whether the size changed. *)
val resize : t -> int -> bool

val active_size : t -> int

(** Test-only tampering, for exercising the invariant checker. *)
module Raw : sig
  (** Raw valid-byte mutation with no bookkeeping. *)
  val set_valid : t -> int -> bool -> unit

  (** Set operand [j] of slot [s]'s predicted-ready bit — sabotage for
      the checker's ready-suppression invariant. The predicted-waiting
      count follows the mark, so only the mark's soundness breaks. *)
  val set_pred : t -> int -> int -> bool -> unit
end
