(** The five configurations the paper evaluates, plus the tightened
    optimizer configuration. *)

type t =
  | Baseline   (** unmodified binary, 80-entry queue, no resizing *)
  | Noop       (** analysis delivered via special NOOPs (Section 5.2) *)
  | Extension  (** analysis delivered via instruction tags (Section 5.3) *)
  | Improved   (** Extension + interprocedural FU contention analysis *)
  | Abella     (** the adaptive hardware comparison point *)
  | Tightened
      (** the {!Sdiq_analysis.Tighten} minimal sound windows, tag
          delivered: same committed trace as [Baseline], audited
          slack-free *)

(** The paper's five configurations — the pinned golden grid. *)
val all : t list

(** [all] plus [Tightened]. *)
val extended : t list
val name : t -> string

(** The binary actually loaded into the machine. *)
val prepare : t -> Sdiq_isa.Prog.t -> Sdiq_isa.Prog.t

(** A fresh policy instance for one run. *)
val policy : t -> Sdiq_cpu.Policy.t

(** [build tech bench]: {!prepare} the benchmark's binary,
    [Pipeline.create] it under a fresh {!policy}, and run the benchmark's
    [init] on the new machine's memory — the one way the harness and the
    CLIs build a (benchmark, technique) pipeline. [?config] and [?sched]
    are passed to [Pipeline.create]. Attach sinks to the result, then
    run it in whatever regime the caller wants. *)
val build :
  ?config:Sdiq_cpu.Config.t ->
  ?sched:Sdiq_cpu.Sched.t ->
  t ->
  Sdiq_workloads.Bench.t ->
  Sdiq_cpu.Pipeline.t

(** The region-map delivery mode whose running binary is exactly what
    {!prepare} builds ([Baseline] and [Abella] map to [Plain]: the
    binary is unmodified but the analysis regions still decompose it
    for attribution). *)
val delivery : t -> Sdiq_obs.Region.delivery
