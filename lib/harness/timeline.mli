(** Time-resolved view of a run: periodic samples of queue occupancy,
    powered banks, the policy's current limit and register-file pressure —
    the data that exposes the adaptive scheme's sensing lag against
    program phases (Section 1 of the paper). *)

type sample = {
  cycle : int;
  committed : int;
  iq_occupancy : int;
  iq_banks_on : int;
  iq_active_size : int;
  policy_limit : int;
  rf_live : int;
}

type t = {
  samples : sample list; (** oldest first *)
  stats : Sdiq_cpu.Stats.t;
}

(** Build the pair with {!Technique.build} ([?config] and [?sched] as
    there) and run it for [max_insns] committed instructions, sampling
    every [interval] cycles. [stats] are the run's own statistics —
    identical to an unsampled run of the same pair. *)
val record :
  ?config:Sdiq_cpu.Config.t ->
  ?sched:Sdiq_cpu.Sched.t ->
  ?interval:int ->
  ?max_insns:int ->
  Sdiq_workloads.Bench.t ->
  Technique.t ->
  t

(** Header row plus one line per sample. *)
val to_csv : t -> string

val pp : Format.formatter -> t -> unit
