(** Annotation tightening: re-derive every region's minimal sound
    window and emit the tightened binary.

    Where {!Sdiq_core.Procedure.analyze_program} folds a loop's
    flattened whole-body schedule into its requirement (an
    over-approximation the audit never demanded) and the "Improved"
    options widen interprocedurally, this pass emits exactly the
    {!Soundness} obligations — refined by {!Tripcount} bounds — so the
    tightened binary re-audits slack-free {e by construction}: the
    optimizer and the auditor share one bound derivation.

    Delivery uses the existing insertion machinery
    ({!Sdiq_isa.Rewrite}); with [Tagged] delivery the instruction
    stream is unchanged, so committed traces are byte-identical to the
    baseline binary's. *)

(** Every entry point reads trip counts from the {!Tripcount.of_program}
    table given as [~tripcounts]. Pass the same table to the tightener
    and the audit of one program and the interval analysis runs once
    for both. *)

(** The tightened annotation list: one annotation per {!Soundness}
    obligation, at its clamped refined bound, loop spans preserved for
    back-edge bypass. *)
val annotations :
  ?opts:Sdiq_core.Options.t ->
  tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  Sdiq_isa.Prog.t ->
  Sdiq_core.Procedure.annotation list

(** Analyse, tighten and deliver; the tightened analogue of
    {!Sdiq_core.Annotate.apply}. *)
val apply :
  ?opts:Sdiq_core.Options.t ->
  tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  Sdiq_core.Annotate.mode ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.t * Sdiq_core.Procedure.annotation list

(** {!Soundness.audit} under the same trip counts the tightener used;
    clean (and slack-free) on this pass's own output. *)
val audit :
  ?opts:Sdiq_core.Options.t ->
  tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  Sdiq_isa.Prog.t ->
  Sdiq_core.Procedure.annotation list ->
  Finding.t list

(** [(anchors, narrowed, reduction)]: total anchors emitted, how many
    are strictly narrower than the "Improved" analysis would grant,
    and the summed window shrink — the static size of the win. *)
val narrowing :
  tripcounts:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  Sdiq_isa.Prog.t ->
  int * int * int
