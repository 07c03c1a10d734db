(** The benchmark's four workloads. Each builds its inputs from a seed,
    then offers two ways to run the same operations: the untraced
    campaign call a user of the simulator makes, and a traced replay that
    drives the same operations through {!Sdiq_util.Pool.map_array} with
    every layer call in its own {!Sdiq_util.Spanlog} span. Both produce
    the same outputs, so their digests must agree. *)

(** [Full] is the measured size; [Smoke] is a tiny instance of the same
    workload for the test suite. *)
type size = Full | Smoke

(** What one campaign produced, in canonical (seed-independent) order. *)
type outcome = {
  attempted : int;  (** operations: pairs, cells or programs *)
  failures : string list;  (** one line per operation that failed a check *)
  outputs : string list;  (** per-operation output hashes, hashed into [sim_digest] *)
  detailed : Sdiq_cpu.Stats.t;  (** summed over every detailed [Pipeline.run] *)
  sampled_insns : int;  (** oracle instructions covered by sampled runs *)
  sampled_measured_insns : int;  (** instructions committed in measured windows *)
  sampled_detailed_insns : int;
      (** warmup plus window instructions by geometry (exact to within a
          commit group per phase) *)
  analysis_errors : int;  (** error findings from audits and certificates *)
  paper_gap_pp : float option;  (** mean |SPECINT bar - paper bar|, paper-grid only *)
}

(** Inputs built for one child process. [campaign] and [traced] run the
    timed work and return the (untimed) collection of its outcome. *)
type prepared = {
  build_s : float;  (** time spent building programs (the workloads layer) *)
  ops : int;  (** operations one campaign attempts *)
  campaign : unit -> unit -> outcome;
  traced : unit -> unit -> outcome;
  oracle : (Sdiq_isa.Prog.t * (Sdiq_isa.Exec.state -> unit)) list;
      (** distinct programs with their memory initialisers, for the
          standalone [Exec.run] probe *)
}

type t = {
  name : string;
  default_reps : int;
  setup : size -> seed:int -> prepared;
}

(** Domains of the parallel workloads' pools. *)
val domains : int

(** Step cap per program of the [Exec.run] probe. *)
val oracle_cap : int

val all : t list
val find : string -> t option
