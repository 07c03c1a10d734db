(** Path-sensitive loop trip-count bounds.

    For each natural loop, tries to prove a static upper bound on the
    number of header executions per loop entry, from the classic
    counted-loop shape: a single counter register stepped by a constant
    exactly once per iteration (checked on {e every} enumerated
    header-to-latch path, via {!Sdiq_core.Loop_need.loop_paths}) and
    latch branches that test the counter against zero or against a
    loop-invariant register whose range the {!Interval} analysis
    bounds. Initial counter ranges come from the interval environment
    at the loop preheader; calls in the loop body are read through the
    callee summaries of the same {!Interval.solve}.

    Bounds are deliberately conservative (ceilings plus a margin
    iteration): they are consumed as [min need (trips * path_len)]
    refinements by {!Soundness} and {!Tighten}, where a slight
    overestimate costs a little precision and an underestimate would be
    unsound. A loop with no provable bound is simply absent from the
    table. *)

(** A program's trip-count table: for each procedure, loop header
    {e block id} to the maximum header executions per loop entry,
    computed on first request from the procedure's fixpoint in one
    {!Interval.solve} of the program (itself run on the first request)
    and memoised. Truncated path enumerations (64 paths) yield no
    bound — an incomplete path universe cannot prove the counter steps
    every iteration. Library and empty procedures get an empty table.
    Build one per program and share it: every consumer of the same
    table derives identical bounds, and the interval work is done
    once. *)
val of_program : Sdiq_isa.Prog.t -> Sdiq_isa.Prog.proc -> (int, int) Hashtbl.t
