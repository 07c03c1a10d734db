(** Interval abstract interpretation: a value-range domain for the
    {!Dataflow} engine (which previously only carried bitset facts).

    The lattice element is a closed integer interval [[lo, hi]] with
    [min_int]/[max_int] standing for the infinities, plus an explicit
    bottom. Plain interval join has unbounded ascending chains (a
    counting loop grows its bound forever), so the join ({!widen}) widens to a
    finite threshold set whenever a genuine merge occurs: endpoints that
    leave the threshold set jump to the nearest enclosing threshold.
    With thresholds drawn from the procedure's own immediates the
    lattice height is finite and the engine's step budget is never at
    risk — the qcheck property pins [Diverged]-freedom on random CFGs.

    {!analyze} runs the per-procedure fixpoint; {!solve} runs the
    interprocedural round-robin fixpoint (mirroring {!Summary}) so call
    sites transfer the callee's may-defined registers to the callee's
    exit intervals instead of havocking everything.

    Both are allocation-light: environments are flat int arrays updated
    in place, one per block for the visit history and one for the
    block's output, allocated once per procedure analysis. The visit
    order is {!Dataflow.worklist}'s, the one {!Dataflow.run} uses. *)

type t =
  | Bot  (** unreachable / no value *)
  | Iv of { lo : int; hi : int }
      (** [lo <= hi]; [min_int]/[max_int] are the infinities *)

val bot : t
val top : t
val const : int -> t

(** [make lo hi] normalises: [Bot] when [lo > hi]. *)
val make : int -> int -> t

val equal : t -> t -> bool

(** Partial order: [leq a b] iff [a] is contained in [b]. *)
val leq : t -> t -> bool

(** Exact interval hull — no widening. Unbounded ascending chains. *)
val hull : t -> t -> t

(** Widening to thresholds: endpoints of [hull a b] that escape [a]
    jump to the nearest enclosing threshold (or infinity). Always
    [leq (hull a b) (widen ~thresholds a b)]. [thresholds] must be
    sorted ascending. *)
val widen : thresholds:int array -> t -> t -> t

(** Register environment: every register's interval, flat (one int
    array, no per-register boxes), as the fixpoint stores it. *)
type env

(** Value of one register (reads of [r0] evaluate to [const 0]). *)
val lookup : env -> Sdiq_isa.Reg.t -> t

(** Per-procedure interval summary: [may_defs] over-approximates the
    registers the procedure (or any transitive callee) can write;
    [ret_env] is a sound environment at any [Ret], computed from a top
    entry environment so it holds for every call site. *)
type proc_summary = {
  may_defs : Regset.t;
  ret_env : env;
}

type solution = {
  entry : env array;  (** environment at each block's entry *)
  exit : env array;
}

(** A whole program's interval facts. *)
type program = {
  summaries : (int, proc_summary) Hashtbl.t;
      (** by entry address. Library and empty procedures are opaque
          (everything may-defined, top exit). *)
  solutions : (int, Sdiq_cfg.Cfg.t * solution) Hashtbl.t;
      (** by entry address: [analyze ~summaries] of each non-library,
          non-empty procedure. The round-robin's last round already ran
          these fixpoints under the final summaries, so they come at no
          extra cost. *)
}

(** Interprocedural round-robin fixpoint over the call graph, mirroring
    {!Summary.of_program}: [may_defs] only grows and [ret_env] only
    widens, so it terminates. A procedure none of whose callees'
    summaries changed since its last solve is not re-solved: it would
    reproduce the summary it already merged. *)
val solve : Sdiq_isa.Prog.t -> program

(** The per-procedure fixpoint on {!Dataflow.worklist}, with the
    interprocedural call transfer when [summaries] is given. *)
val analyze :
  ?summaries:(int, proc_summary) Hashtbl.t ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.proc ->
  Sdiq_cfg.Cfg.t ->
  solution

val pp : Format.formatter -> t -> unit
