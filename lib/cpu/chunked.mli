(** A table of fixed-width int rows that allocates its storage lazily,
    a chunk of rows at a time, each chunk small enough for the minor
    heap. Building one costs a small directory, not the whole table,
    which is what keeps {!Pipeline.create} cheap: the caches and the BTB
    are the bulk of a machine's state, and a short run touches little
    of it. Rows never touched read as the template, so lazy and eager
    tables are indistinguishable. *)

type t

(** [create ~rows ~template] is [rows] rows, each a copy of [template]
    (whose length is the row width). Raises [Invalid_argument] when
    either is empty. *)
val create : rows:int -> template:int array -> t

(** [chunk t r] is the array holding row [r] (materialised on first
    touch); the row occupies the row width's slots from {!base}[ t r].
    Needs [0 <= r < rows]; a negative [r] raises [Invalid_argument]. *)
val chunk : t -> int -> int array

(** Offset of row [r] within {!chunk}[ t r]. *)
val base : t -> int -> int
