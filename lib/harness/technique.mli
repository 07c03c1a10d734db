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

(** The inverse of {!name} over {!extended}: [Ok t] exactly when
    [name t = s]; the error names every valid technique. *)
val of_string : string -> (t, string) result

(** The annotated-binary recipe: [Sdiq_analysis.Driver.mode_named]
    of the technique's {!name}, [None] for [Baseline] and [Abella]
    (unmodified binary). Give it to [Sdiq_obs.Region.build] to map the
    binary {!prepare} builds. *)
val recipe : t -> Sdiq_analysis.Driver.mode option

(** The binary actually loaded into the machine:
    [Sdiq_analysis.Driver.apply_mode] on the {!recipe}, or the program
    itself without one. *)
val prepare : t -> Sdiq_isa.Prog.t -> Sdiq_isa.Prog.t

(** A fresh policy instance for one run. *)
val policy : t -> Sdiq_cpu.Policy.t

(** [build tech bench]: {!prepare} the benchmark's binary,
    [Pipeline.create] it under a fresh {!policy}, and run the benchmark's
    [init] on the new machine's memory — the one way the harness, the
    ablation studies and the CLIs build a (benchmark, technique)
    pipeline. [?config] and [?sched] are passed to [Pipeline.create].
    [?prog] is the binary to load in place of {!prepare}'s, and the
    technique then chooses only the policy: the profiled runner loads
    its region map's binary, and the ablations load a recipe's binary
    built with their own analysis options. Attach sinks to the result,
    then run it in whatever regime the caller wants. *)
val build :
  ?config:Sdiq_cpu.Config.t ->
  ?sched:Sdiq_cpu.Sched.t ->
  ?prog:Sdiq_isa.Prog.t ->
  t ->
  Sdiq_workloads.Bench.t ->
  Sdiq_cpu.Pipeline.t
