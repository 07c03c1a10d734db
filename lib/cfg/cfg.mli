(** Control-flow graph of one procedure.

    Basic blocks end at control instructions and also at calls: the
    paper's region decomposition (Section 4.1) treats the block after a
    call as the start of a new DAG, so calls terminate blocks here. *)

type block = {
  id : int;
  first : int; (** address of first instruction, inclusive *)
  last : int;  (** address of last instruction, inclusive *)
}

type t = {
  proc : Sdiq_isa.Prog.proc;
  prog : Sdiq_isa.Prog.t;
  blocks : block array;       (** indexed by id, in address order *)
  succs : int list array;
  preds : int list array;
  block_of_addr : int array;  (** proc-relative address -> block id *)
}

val block_len : block -> int
val block_addrs : block -> int list

(** Instructions of a block, in address order. *)
val instrs : t -> block -> Sdiq_isa.Instr.t list

val entry_block : t -> block
val num_blocks : t -> int

(** Raises [Invalid_argument] for an address outside the procedure. *)
val block_at : t -> int -> block

(** Raises [Invalid_argument] on an empty procedure. *)
val build : Sdiq_isa.Prog.t -> Sdiq_isa.Prog.proc -> t

val succs : t -> int -> int list
val preds : t -> int -> int list

(** Reverse post-order from the entry; unreachable blocks appended. *)
val reverse_postorder : t -> int list

