(** Dominator computation (iterative dataflow over bitsets). *)

type t

val compute : Cfg.t -> t

(** [dominates t d b]: does block [d] dominate block [b]? *)
val dominates : t -> int -> int -> bool

