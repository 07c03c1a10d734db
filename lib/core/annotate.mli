(** Annotation delivery: from analysis results to an annotated binary.

    [Noop] inserts special NOOPs into the instruction stream (Section 3);
    they cost fetch bandwidth, icache space and a dispatch slot. [Tagged]
    attaches the values to existing instructions via redundant ISA bits
    (the paper's "Extension", Section 5.3). *)

type mode =
  | Noop
  | Tagged

(** Lookup function over an annotation list. *)
val annotation_map : Procedure.annotation list -> int -> int option

(** Deliver an annotation list into a binary: [Noop] inserts an [Iqset]
    before each annotated address (annotated loops' back edges keep
    targeting the header, so the NOOP runs on loop entry only); [Tagged]
    tags the annotated instruction. The only caller of the
    {!Sdiq_isa.Rewrite} rewriters. *)
val deliver :
  mode ->
  Procedure.annotation list ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.t

(** Analyse and annotate; returns the annotated program and the
    annotations used. *)
val apply :
  ?opts:Options.t ->
  mode ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.t * Procedure.annotation list
