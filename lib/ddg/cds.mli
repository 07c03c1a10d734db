(** Cyclic dependence sets and loop scheduling (Section 4.3).

    For a loop-body DDG with carried edges this computes the initiation
    interval (the larger of the critical CDS's recurrence bound and the
    resource bound), per-instruction start offsets, and the paper's
    Figure 4 equations: instruction [x] of iteration [i] issues with the
    reference CDS instruction of iteration [i + k(x)], plus a residual
    cycle count when the alignment is not exact. *)

type equation = {
  node : int;
  iter_offset : int;    (** k: aligns with reference of iteration i + k *)
  cycle_residual : int; (** leftover cycles in [0, ii) *)
}

type schedule = {
  ii : int;             (** initiation interval, cycles per iteration *)
  start : int array;    (** issue cycle of position p in iteration 0 *)
  reference : int;      (** body position of the reference instruction *)
  cds : int list;       (** positions of the critical CDS (empty if none) *)
  equations : equation list;
}

(** Strongly connected components that form dependence cycles — the
    paper's cyclic dependence sets. *)
val cds_sets : Ddg.t -> int list list

val schedule :
  ?width:int -> ?fu_count:(Sdiq_isa.Fu.t -> int) -> Ddg.t -> schedule

(** Issue-queue entries needed so the loop sustains its critical path:
    the widest dispatch-index span between the oldest instruction still
    waiting to issue and the youngest instruction issuing, in steady
    state (the Figure 4 example yields 15). Capped at [cap]. *)
val iq_need : ?cap:int -> Ddg.t -> schedule -> int
