(** Top-level orchestration of the static-analysis passes: one call
    audits a program under one annotation mode (soundness + delivery +
    wrong-path anchor hygiene) and runs the mode-independent lints and
    the register-pressure check. *)

(** An annotated-binary recipe: one of the paper's three annotation
    configurations, or the [tightened] optimizer configuration. *)
type mode = {
  name : string;
      (** ["noop"], ["extension"], ["improved"] or ["tightened"] *)
  delivery : Sdiq_core.Annotate.mode;
  opts : Sdiq_core.Options.t;
  tightened : bool;  (** annotations come from {!Tighten}, not the
                         baseline analysis *)
}

(** The only table of annotated recipes. *)
val modes : mode list

val mode_named : string -> mode option

(** The only way to make an annotated binary: analyse (or tighten) and
    deliver by the recipe. The simulator harness, the region map, lint
    and the tightening audit all call it, so each sees the same binary
    as long as this stays deterministic. [tripcounts] (read by the
    tightened mode only; the table is lazy, so other modes never build
    it) defaults to a fresh {!Tripcount.of_program} table; give
    {!audit_mode} the same one and the interval analysis runs
    once for both. *)
val apply_mode :
  ?tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  mode ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.t * Sdiq_core.Procedure.annotation list

(** Soundness audit plus delivery-integrity and wrong-path lints for
    one mode: the program is prepared by {!apply_mode}, then both
    artefacts are audited against one shared trip-count table
    ([tripcounts], as for {!apply_mode}). *)
val audit_mode :
  ?tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  mode ->
  Sdiq_isa.Prog.t ->
  Finding.t list

(** Mode-independent program lints and the register-pressure pass. *)
val lint_program : ?rf_size:int -> Sdiq_isa.Prog.t -> Finding.t list

(** [audit_mode] under every mode, plus [lint_program], sorted with
    errors first. *)
val audit_all : ?rf_size:int -> Sdiq_isa.Prog.t -> Finding.t list
