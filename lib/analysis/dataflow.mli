(** A generic monotone dataflow framework over {!Sdiq_cfg.Cfg}.

    The caller supplies the lattice (join, equality, an optimistic
    initial fact) and the block transfer function; the engine iterates a
    worklist seeded in reverse post-order (forward analyses) or its
    reverse (backward analyses) to a fixpoint. Joins are performed over
    block-level facts, so a transfer function summarises one whole basic
    block.

    Termination is the caller's obligation — the transfer function must
    be monotone over a finite-height lattice — but the engine enforces a
    step budget and raises {!Diverged} instead of spinning when handed a
    non-monotone analysis, so a buggy pass fails loudly. *)

type direction =
  | Forward   (** facts flow entry → exit; input of a block joins its
                  predecessors' outputs *)
  | Backward  (** facts flow exit → entry; input of a block joins its
                  successors' outputs *)

(** Raised when the worklist exceeds its step budget: the supplied
    analysis is not monotone (or the budget was set too tight). Carries
    the analysis name and the number of steps taken. *)
exception Diverged of string * int

type 'fact spec = {
  name : string;  (** for diagnostics ({!Diverged}) *)
  direction : direction;
  boundary : 'fact;
      (** fact entering the CFG: at the entry block (forward) or at every
          exit block, i.e. one with no successors (backward) *)
  init : 'fact;
      (** optimistic starting fact (lattice top for must-analyses,
          bottom for may-analyses); also the input of blocks with no
          input edges, e.g. unreachable blocks *)
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
  transfer : int -> 'fact -> 'fact;
      (** [transfer block_id input] summarises the whole block *)
}

type 'fact solution = {
  entry : 'fact array;  (** fact at each block's entry, by block id *)
  exit : 'fact array;   (** fact at each block's exit, by block id *)
  steps : int;          (** worklist pops until the fixpoint *)
}

(** Solve to a fixpoint. [max_steps] defaults to [256 * (blocks + 1)] —
    far above what any finite-height monotone analysis needs. *)
val run : ?max_steps:int -> Sdiq_cfg.Cfg.t -> 'fact spec -> 'fact solution

(** The schedule {!run} follows, for analyses that keep their own
    (mutable) per-block facts: pop blocks from a queue seeded in
    direction order, call [visit b], and when it returns [true] (the
    block's output changed) queue every sink of [b] not already queued.
    Returns the number of visits; raises {!Diverged} (tagged [name])
    past the same [max_steps] budget as {!run}. *)
val worklist :
  ?max_steps:int ->
  name:string ->
  Sdiq_cfg.Cfg.t ->
  direction ->
  (int -> bool) ->
  int
