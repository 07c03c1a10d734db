(** Open-addressing int-keyed int map (the data memory's page table
    and side table, see {!Store}):
    power-of-two capacity, multiplicative hashing, linear probing,
    allocation-free lookups, no single-key deletion. Any int but
    [min_int] can be a key. *)

type t

(** [create n]: capacity at least [n], rounded up to a power of two. *)
val create : int -> t

(** The value bound to [k], or [default] when absent. *)
val find : t -> int -> default:int -> int

(** Whether [k] is bound. *)
val mem : t -> int -> bool

(** The slot holding [k], or [-1] when [k] is unbound. With
    {!slot_value}, one probe serves a caller that reads another table
    on a miss. *)
val find_slot : t -> int -> int

(** The value in a slot {!find_slot} returned. *)
val slot_value : t -> int -> int

(** Bind [k] to [v], replacing any previous binding. Raises
    [Invalid_argument] when [k] is [min_int]. *)
val replace : t -> int -> int -> unit

(** Number of bindings. *)
val count : t -> int

(** Drop every binding; the capacity is kept. *)
val clear : t -> unit

(** Iterate over bindings, in unspecified order. *)
val iter : (int -> int -> unit) -> t -> unit
