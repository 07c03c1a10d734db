(** Banked physical register file with a free list (Section 5.2.3).
    Allocation prefers the lowest-numbered free register so live values
    cluster into few banks, maximising how many banks can be gated off. *)

type t = {
  size : int;
  bank_size : int;
  free : bool array;
  ready : bool array;
  bank_live : int array;
      (** live registers per bank, maintained incrementally *)
  bank_of : int array;  (** register → bank, precomputed *)
  mutable live_mask : int;  (** bit [b] set iff [bank_live.(b) > 0] *)
  mutable live_banks : int;  (** popcount of [live_mask], incremental *)
  mutable free_head : int;
      (** lowest-numbered free register; [size] when exhausted *)
  mutable free_count : int;
  mutable reads : int;
  mutable writes : int;
  mutable allocs : int;
  mutable alloc_failures : int;
}

val create : size:int -> bank_size:int -> t
val banks : t -> int
val free_count : t -> int
val live_count : t -> int

(** Lowest-numbered free register, marked not-ready; [-1] (and one more
    [alloc_failures]) when the file is exhausted. Allocation-free: the
    pipeline's rename path. *)
val alloc_idx : t -> int

(** Claim a specific register (initial architectural mapping). *)
val alloc_exact : t -> int -> unit

(** Raises [Invalid_argument] on a double free. *)
val release : t -> int -> unit

val is_ready : t -> int -> bool

(** Mark the value produced (counts as a write). *)
val mark_ready : t -> int -> unit

val note_read : t -> unit

(** Banks holding at least one live register. *)
val banks_on : t -> int

(** Bitmask of the powered banks (bit [b] set iff bank [b] holds a live
    register); [banks_on] is its popcount. *)
val banks_on_mask : t -> int
