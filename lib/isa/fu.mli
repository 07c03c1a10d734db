(** Functional-unit classes, matching Table 1 of the paper: 6 integer ALUs
    (1 cycle), 3 integer multipliers (3 cycles, division included), 4 FP
    ALUs (2 cycles), 2 FP mult/div units (4/12 cycles), plus 2 memory
    ports for address generation. *)

type t =
  | Int_alu
  | Int_mul
  | Fp_alu
  | Fp_muldiv
  | Mem_port

(** All classes, in [index] order. *)
val all : t list

(** Dense index in [0, count_classes). *)
val index : t -> int

val count_classes : int

(** Unit counts from Table 1 (memory ports are the SimpleScalar default). *)
val default_count : t -> int

