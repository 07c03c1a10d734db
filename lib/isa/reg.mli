(** Architectural registers: 32 integer ([r0]..[r31], [r0] hardwired to zero)
    and 32 floating point ([f0]..[f31]). *)

type t =
  | Int of int
  | Fp of int

val num_int : int
val num_fp : int

(** Total number of architectural registers (int + fp). *)
val count : int

(** Constructors with bounds checks. *)
val int : int -> t

val fp : int -> t

(** The hardwired zero register [r0]. *)
val zero : t

val is_zero : t -> bool

(** Dense index over int-then-fp space, in [0, count). *)
val dense : t -> int

val of_dense : int -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
