(** Translation lookaside buffer: fully associative, true LRU.

    The simulated ISA is flat-addressed, so only hit/miss timing and
    miss traffic are modelled. The pipeline keeps an ITLB (probed once
    per fetch-group page) and a DTLB (probed at load/store issue). *)

type t

(** [create ~entries ~page_size] — [page_size] is in words and must be
    a power of two, at least 2 (so no page number collides with the
    free-entry marker). *)
val create : entries:int -> page_size:int -> t

(** Probe for the page holding [addr]; install over the LRU entry on a
    miss. Returns [true] on a hit. *)
val access : t -> int -> bool

(** Warm the entry for [addr], discarding the outcome (sampling
    fast-forward). *)
val train : t -> int -> unit

