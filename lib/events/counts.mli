(** A per-kind event counter sink: two runs are event-equivalent iff
    their count tables match, and [to_string] is byte-comparable. *)

type t

val create : unit -> t

(** The sink itself: pass [sink c] to {!Bus.subscribe}. *)
val sink : t -> Event.t -> unit

(** Count for kind index [i] (see {!Event.index}). *)
val get : t -> int -> int

(** One line, every kind in index order: ["fetch=12 annotation=0 ..."]. *)
val to_string : t -> string

(** Human-readable event mix: one kind per line in {!Event.index}
    order, zero-count kinds elided, with percentage of total. *)
val pp : Format.formatter -> t -> unit
