(** A paged word store (the oracle's data memory): a machine's store
    overlay, a wrong-path shadow's overlay or a benchmark's frozen
    image. Word-aligned int words live in 32-word pages, each with a
    written-mask so that a stored 0 is told apart from an unwritten
    word; int words off the 4-byte grid and fp words live in side
    tables. *)

type t

(** An empty store. *)
val create : unit -> t

(** [find s addr miss x]: the int word stored at [addr], or
    [miss x addr] when [s] holds none there. Allocates nothing. *)
val find : t -> int -> ('a -> int -> int) -> 'a -> int

(** [find_float s addr miss x]: the fp word stored at [addr], or
    [miss x addr] when [s] holds none there. *)
val find_float : t -> int -> ('a -> int -> float) -> 'a -> float

(** Whether an int (resp. fp) word is stored at the address. *)
val mem : t -> int -> bool

val mem_float : t -> int -> bool
val set : t -> int -> int -> unit
val set_float : t -> int -> float -> unit

(** Whether no word is stored. *)
val is_empty : t -> bool

(** Drop every word. The page arrays are kept and reused by later
    stores. *)
val clear : t -> unit

(** Every stored word once, int words then fp words, in unspecified
    order. *)
val iter : t -> int:(int -> int -> unit) -> float:(int -> float -> unit) -> unit
