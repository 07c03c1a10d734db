(** Running statistics accumulator (count / sum / mean / min / max). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float
val reset : t -> unit

(** [pct_reduction ~base v] is the percentage reduction from [base] to [v];
    positive when [v < base], 0 when [base = 0]. *)
val pct_reduction : base:float -> float -> float

(** Arithmetic mean of a list, 0 for the empty list. *)
val mean_of : float list -> float
