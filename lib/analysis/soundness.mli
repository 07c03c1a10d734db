(** Annotation-soundness audit: the paper's critical-path guarantee as a
    statically checked theorem.

    Sections 4.2–4.3 promise that the [max_new_range] annotated on each
    region never delays the critical path. This pass re-derives, for
    every region anchor the analysis must annotate, a DDG-based lower
    bound on the IQ entries the machine needs — per basic block for DAG
    regions, and along {e every} enumerated acyclic header-to-header path
    for loop regions — and verifies the emitted annotation is at least
    that bound. A violation reports the anchor, the violating path and
    the (negative) slack.

    Bounds are computed with [slack = 0] and the interprocedural
    refinement off, whatever the options the annotations were produced
    with: both knobs may only widen annotations, so the base analysis is
    the true lower bound all three modes must dominate. Loop paths are
    enumerated with the same bound ({!Sdiq_core.Loop_need.loop_paths}
    default) the analysis itself uses, so audit and analysis agree on
    the path universe. *)

(** One obligation: the annotation at [anchor] must be ≥ [required]. *)
type bound = {
  anchor : int;        (** address the annotation must appear at *)
  kind : string;
      (** ["dag-block"], ["loop-header"], ["loop-reentry"] or
          ["library-call"] *)
  blocks : int list;   (** the block, or the arg-max loop path *)
  need : int;          (** raw recomputed IQ need *)
  required : int;      (** clamped lower bound: [max 2 (min iq_size need)] *)
  paths_examined : int;
      (** loop anchors: how many acyclic paths were enumerated *)
  trip_bound : int option;
      (** loop anchors: the {!Tripcount} bound applied to this
          obligation, when one was supplied and proved *)
}

(** All obligations of one procedure, in anchor order.

    [tripcounts] (loop header block id → max header executions, as
    produced by {!Tripcount.of_program}) refines loop obligations to
    [min need (trips * max_path_len)]: a loop bounded to [t] trips
    dispatches at most [t * max_path_len] of its own instructions per
    entry, so a window admitting them all simultaneously cannot delay
    the critical path. {!Tighten} derives its annotations from these
    same refined obligations, so a tightened binary re-audited with the
    same trip counts is slack-free by construction. *)
val bounds_of_proc :
  ?opts:Sdiq_core.Options.t ->
  ?tripcounts:(int, int) Hashtbl.t ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.proc ->
  bound list

(** Audit a whole program's annotation list (as produced by
    {!Sdiq_core.Procedure.analyze_program} /
    {!Sdiq_core.Annotate.apply}) against the recomputed bounds: an
    [Error] finding for every missing or under-sized annotation, plus
    one [Info] finding summarising anchors audited and minimum slack.

    [tripcounts_of] supplies each procedure's trip-count table; the
    audit then accepts annotations that meet the refined (smaller)
    loop obligations — the audit side of the {!Tighten} contract. *)
val audit :
  ?opts:Sdiq_core.Options.t ->
  ?tripcounts_of:(Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t) ->
  Sdiq_isa.Prog.t ->
  Sdiq_core.Procedure.annotation list ->
  Finding.t list
