(* The five configurations the paper evaluates, plus the tightened
   optimizer configuration grown on top of them.

   Baseline  — unmodified binary, 80-entry queue, no resizing.
   Noop      — compiler analysis delivered via special NOOPs (Section 5.2).
   Extension — same analysis, delivered via instruction tags (Section 5.3).
   Improved  — Extension plus interprocedural FU contention analysis.
   Abella    — the hardware-adaptive IqRob64 comparison point.
   Tightened — the audit's own (trip-count refined) minimal windows,
               delivered via tags; [all] keeps the paper's five so the
               pinned golden grid stays the paper's grid, [extended]
               adds this one. *)

open Sdiq_isa

type t =
  | Baseline
  | Noop
  | Extension
  | Improved
  | Abella
  | Tightened

let all = [ Baseline; Noop; Extension; Improved; Abella ]
let extended = all @ [ Tightened ]

let name = function
  | Baseline -> "baseline"
  | Noop -> "noop"
  | Extension -> "extension"
  | Improved -> "improved"
  | Abella -> "abella"
  | Tightened -> "tightened"

(* The binary actually loaded into the machine. *)
let prepare t (prog : Prog.t) : Prog.t =
  match t with
  | Baseline | Abella -> prog
  | Noop -> fst (Sdiq_core.Annotate.noop prog)
  | Extension -> fst (Sdiq_core.Annotate.extension prog)
  | Improved -> fst (Sdiq_core.Annotate.improved prog)
  | Tightened -> fst (Sdiq_analysis.Tighten.apply Sdiq_core.Annotate.Tagged prog)

(* A fresh policy instance for one run. *)
let policy t : Sdiq_cpu.Policy.t =
  match t with
  | Baseline -> Sdiq_cpu.Policy.unlimited
  | Noop | Extension | Improved | Tightened -> Sdiq_cpu.Policy.software ()
  | Abella -> Sdiq_cpu.Policy.abella ()

(* The one way to build a (benchmark, technique) machine: prepare the
   binary, take a fresh policy, create the pipeline and load the
   benchmark's initial memory. Callers then attach their sinks and pick
   the execution regime. *)
let build ?config ?sched t (bench : Sdiq_workloads.Bench.t) :
    Sdiq_cpu.Pipeline.t =
  let prog = prepare t bench.Sdiq_workloads.Bench.prog in
  let p = Sdiq_cpu.Pipeline.create ?config ~policy:(policy t) ?sched prog in
  bench.Sdiq_workloads.Bench.init p.Sdiq_cpu.Pipeline.exec;
  p

(* The region-map delivery whose running binary matches [prepare]. *)
let delivery t : Sdiq_obs.Region.delivery =
  match t with
  | Baseline | Abella -> Sdiq_obs.Region.Plain
  | Noop -> Sdiq_obs.Region.Noop
  | Extension -> Sdiq_obs.Region.Tagged { improved = false }
  | Improved -> Sdiq_obs.Region.Tagged { improved = true }
  | Tightened -> Sdiq_obs.Region.Tightened
