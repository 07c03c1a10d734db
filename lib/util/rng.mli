(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the repository flows through this module so that every
    workload, test and benchmark is reproducible from its seed. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** Independent copy: advancing the copy does not affect the original. *)
val copy : t -> t

(** Non-negative int, uniform over [0, 2^62). *)
val next : t -> int

(** [int t bound] is uniform over [0, bound). Raises [Invalid_argument]
    when [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform over the inclusive range [lo, hi]. *)
val int_in : t -> int -> int -> int

val bool : t -> bool

(** [chance t p] is true with probability [p]. *)
val chance : t -> float -> bool

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

