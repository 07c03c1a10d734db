(** The instruction set: a small load/store RISC ISA.

    [Iqset] is the paper's special NOOP: it carries the [max_new_range]
    value for the next program region in its immediate field, changes no
    architectural state, and is stripped from the instruction stream at
    the final decode stage before dispatch (Section 3). *)

type t =
  | Add | Sub | And | Or | Xor | Shl | Shr | Slt | Sle | Seq | Sne
  | Addi | Andi | Ori | Xori | Shli | Shri | Slti
  | Li
  | Mov
  | Mul
  | Div
  | Fadd | Fsub
  | Fmul
  | Fdiv
  | Fli
  | Fmov
  | Itof
  | Ftoi
  | Load
  | Store
  | Fload
  | Fstore
  | Beq | Bne | Blt | Bge
  | Jmp
  | Call
  | Ret
  | Nop
  | Iqset
  | Halt

(** The functional-unit class that executes this opcode. *)
val fu_class : t -> Fu.t

(** Execution latency in cycles, excluding cache time for memory ops. *)
val latency : t -> int

val is_cond_branch : t -> bool

(** Any control transfer: conditional branches, jumps, calls, returns. *)
val is_control : t -> bool

val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool

(** Divides occupy their unit for their full latency. *)
val unpipelined : t -> bool

val pp : Format.formatter -> t -> unit
