(** Differential oracle harness.

    Runs a program on the functional executor ({!Sdiq_isa.Exec}) and on
    the pipeline under every technique in {!Sdiq_harness.Technique},
    comparing the committed architectural trace instruction by
    instruction and the final architectural state across techniques
    against the unannotated baseline. Divergences are reported as
    replayable cases: the prepared binary, the first mismatching
    instruction with full context, and a program listing around the
    divergence point. *)

(** One instruction of the oracle's reference trace. *)
type event = {
  dyn : Sdiq_isa.Exec.dyn;
  value : string;
      (** printed destination value after execution, [""] if none *)
  store : (int * string) option;
      (** effective address and value for stores *)
}

type mismatch = {
  index : int;  (** position in the committed stream *)
  expected : event option;  (** [None]: the pipeline committed extra *)
  got : Sdiq_isa.Exec.dyn option;
      (** [None]: the pipeline committed too little *)
  context : event list;  (** the last few agreed-upon events *)
}

type failure =
  | Trace_mismatch of mismatch
  | State_mismatch of string
      (** final registers/memory differ from the baseline program's *)
  | Violation of Checker.violation
  | Stuck of string  (** deadlock: {!Sdiq_cpu.Pipeline.Simulation_limit} *)

type outcome = (Sdiq_cpu.Stats.t, failure) result

type report = {
  technique : Sdiq_harness.Technique.t;
  prepared : Sdiq_isa.Prog.t;
      (** the binary actually simulated — the replay case *)
  outcome : outcome;
}

(** The oracle's reference trace of a program: the final functional
    state, one {!event} per dynamic instruction the pipeline will commit
    ([Iqset] and [Halt] are filtered out), and whether [max_steps]
    truncated the run. *)
val oracle_trace :
  ?init:(Sdiq_isa.Exec.state -> unit) ->
  max_steps:int ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Exec.state * event array * bool

(** First divergence between a reference trace and a committed stream,
    if any. *)
val diff_traces : event array -> Sdiq_isa.Exec.dyn array -> mismatch option

(** Run every technique (default {!Sdiq_harness.Technique.all}) with the
    invariant checker installed (default [check:true]), comparing each
    technique's final architectural state against the baseline
    program's. *)
val run :
  ?config:Sdiq_cpu.Config.t ->
  ?init:(Sdiq_isa.Exec.state -> unit) ->
  ?check:bool ->
  ?max_cycles:int ->
  ?max_steps:int ->
  ?techniques:Sdiq_harness.Technique.t list ->
  Sdiq_isa.Prog.t ->
  report list

(** All reports succeeded. *)
val ok : report list -> bool

val first_failure : report list -> report option
val pp_failure : prepared:Sdiq_isa.Prog.t -> Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit
