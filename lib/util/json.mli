(** A minimal JSON value with a recursive-descent parser and canonical
    printer — just enough for the telemetry round-trips (ledger records,
    Chrome trace documents, perf results) without an external dependency.

    Numbers are [float]s; [%.17g] printing keeps them round-trippable.
    The parser accepts any RFC 8259 document (objects preserve key
    order, duplicate keys keep both) and nothing else: a number outside
    the RFC grammar (["01"], ["-.5"], ["1."]), a [\u] escape without
    exactly four hex digits, or trailing garbage is an [Error] naming
    the offset. It never raises. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

(** Canonical compact rendering; [parse (to_string v)] returns [v] up
    to float rounding (exact with [%.17g]). *)
val to_string : t -> string

(** First value bound to [key]; [None] when absent or not an object. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** JSON string-escape [s] (without the surrounding quotes). *)
val escape : string -> string
