(** The static region map attribution runs against: one region per
    compiler annotation (the paper's per-DAG-block / per-loop-header
    [Iqset] sites, Sections 3-4), plus a region per library procedure
    (opaque to the analysis), a preamble region for any unannotated
    procedure prefix, and a synthetic startup region for events before
    the first commit.

    The map lives in the address space of the binary the machine
    actually executes: for NOOP delivery the emitted addresses are
    recovered from the annotated binary itself via
    {!Sdiq_analysis.Lint.noop_address_map} (the same reconstruction
    the delivery lints audit with), for tag delivery and for
    unannotated binaries the addresses are unchanged. A committed
    instruction's [pc] therefore always resolves via {!of_addr}. *)

type kind =
  | Startup  (** synthetic: events before the first commit *)
  | Preamble  (** unannotated prefix of a procedure *)
  | Library  (** a library procedure, opaque to the analysis *)
  | Block  (** a DAG-block or re-entry annotation *)
  | Loop  (** a loop-header annotation (has a [loop_span]) *)

type info = {
  id : int;
  proc : string;
  kind : kind;
  start : int;  (** first address in the running binary; -1 for Startup *)
  orig_start : int;  (** address in the original binary; -1 if none *)
  granted : int option;  (** the annotation's [Iqset] window, if any *)
}

type t

(** [build recipe original]: prepare [original] by
    {!Sdiq_analysis.Driver.apply_mode} (the call
    [Sdiq_harness.Technique.prepare] makes, so the running binary is the
    one the machine loads) and index the result. [None] (Baseline and
    Abella) leaves the binary unmodified but still decomposes it into
    the analysis's regions for attribution. *)
val build : Sdiq_analysis.Driver.mode option -> Sdiq_isa.Prog.t -> t

(** The recipe's name, or ["plain"] for an unannotated binary. *)
val recipe_name : t -> string

(** The binary the map's addresses refer to — load this one. *)
val running_prog : t -> Sdiq_isa.Prog.t

(** Number of regions, Startup included. *)
val count : t -> int

val info : t -> int -> info
val infos : t -> info array

(** Region owning a running-binary address; raises [Invalid_argument]
    outside [0, length). *)
val of_addr : t -> int -> int

val kind_name : kind -> string
