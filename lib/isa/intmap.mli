(** Open-addressing int-keyed int map (the oracle's data memory):
    power-of-two capacity, multiplicative hashing, linear probing,
    allocation-free lookups, no single-key deletion. *)

type t

(** [create n]: capacity at least [n], rounded up to a power of two. *)
val create : int -> t

(** The value bound to [k], or [default] when absent. *)
val find : t -> int -> default:int -> int

(** Whether [k] is bound. *)
val mem : t -> int -> bool

(** Bind [k] to [v], replacing any previous binding. *)
val replace : t -> int -> int -> unit

(** Number of bindings. *)
val count : t -> int

(** Drop every binding; the capacity is kept. *)
val clear : t -> unit

(** Iterate over bindings, in unspecified order. *)
val iter : (int -> int -> unit) -> t -> unit
