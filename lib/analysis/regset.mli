(** Compact sets of architectural registers, used as dataflow facts.

    One bit per register, integer and floating-point files kept apart so
    per-file cardinalities (the register-pressure pass) are O(popcount).
    The hardwired zero register is representable but the passes never add
    it: {!Sdiq_isa.Instr.sources} and [dest] already exclude it. *)

type t

val empty : t

(** Every integer and floating-point register. *)
val full : t

val add : Sdiq_isa.Reg.t -> t -> t
val remove : Sdiq_isa.Reg.t -> t -> t
val mem : Sdiq_isa.Reg.t -> t -> bool

(** [mem_dense i t] is [mem (Reg.of_dense i) t], allocation-free. *)
val mem_dense : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val is_empty : t -> bool

(** Number of integer registers in the set. *)
val int_card : t -> int

(** Number of floating-point registers in the set. *)
val fp_card : t -> int

val elements : t -> Sdiq_isa.Reg.t list
val of_list : Sdiq_isa.Reg.t list -> t
