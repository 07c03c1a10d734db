(** Set-associative cache with LRU replacement and in-flight line
    tracking: a missing line is installed immediately but its data only
    "arrives" at the fill time the caller records, so later accesses to a
    still-in-flight line see [Inflight] rather than a free hit (an
    MSHR-style merge — without it, dependent pointer chases would ride
    their own line fills). *)

type t

type outcome =
  | Hit
  | Inflight of int (** remaining cycles until the fill completes *)
  | Miss

(** [line] is in bytes and at least 2 (so no line number collides with
    the invalid-way marker); raises [Invalid_argument] otherwise. Line
    numbers are floored, so negative addresses map to negative lines. *)
val create : sets:int -> ways:int -> line:int -> t
val hits : t -> int
val misses : t -> int

(** Tag-match the line at byte address [addr]; a miss installs it with
    fill time [now] (push it out with {!set_fill}). *)
val probe : t -> now:int -> int -> outcome

(** Record when the just-missed line's data will arrive. *)
val set_fill : t -> int -> int -> unit

(** Untimed access: true on a settled hit; misses install instantly. *)
val access : t -> int -> bool
