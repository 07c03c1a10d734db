(** Assembled programs: a flat instruction array in which each procedure
    occupies a contiguous range. Produced by {!Asm.assemble}, rewritten
    by {!Rewrite}. *)

type proc = {
  name : string;
  entry : int;  (** address of the first instruction *)
  len : int;    (** number of instructions *)
  is_library : bool;
      (** library routines are opaque to the analysis: the IQ is allowed
          to grow to its maximum before calling one (Section 4.4) *)
}

type t = {
  code : Instr.t array;
  procs : proc list;
  entry : int;  (** address where execution starts *)
}

val length : t -> int

(** Raises [Invalid_argument] outside [0, length). *)
val instr : t -> int -> Instr.t

val find_proc : t -> string -> proc option
val proc_of_addr : t -> int -> proc option

(** Addresses of a procedure's instructions, in order. *)
val proc_addrs : proc -> int list

(** Number of instructions satisfying the predicate. *)
val count_matching : t -> (Instr.t -> bool) -> int
