(** Structured findings produced by the static-analysis passes.

    [Error] findings break the paper's contract (an annotation below the
    statically provable IQ need, a branch bypassing an inserted NOOP) and
    make [bin/lint.exe] exit non-zero; [Warning] findings are suspicious
    but not contract-breaking; [Info] findings record proved facts and
    statistics. *)

type severity =
  | Error
  | Warning
  | Info

type t = {
  severity : severity;
  pass : string;      (** pass identifier, e.g. ["soundness"] *)
  proc : string;      (** procedure name; [""] for whole-program findings *)
  addr : int option;  (** instruction address the finding anchors to *)
  blocks : int list;  (** block-id path or site; [[]] when not applicable *)
  message : string;
}

val make :
  ?proc:string ->
  ?addr:int ->
  ?blocks:int list ->
  severity ->
  pass:string ->
  string ->
  t

(** Errors first, then warnings, then infos; ties by (proc, addr). *)
val compare : t -> t -> int

val errors : t list -> int
val warnings : t list -> int
val infos : t list -> int

(** No error-severity findings. *)
val is_clean : t list -> bool

val pp : Format.formatter -> t -> unit

(** One finding as a flat JSON object (machine-readable lint output);
    [extra] key/value pairs are spliced in first (e.g. the benchmark). *)
val to_json : ?extra:(string * string) list -> t -> string

(** One line: "E errors, W warnings, I infos". *)
val pp_summary : Format.formatter -> t list -> unit
