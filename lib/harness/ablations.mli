(** Ablation studies over the design choices DESIGN.md calls out:
    annotation delivery mechanism, bank granularity, analysis slack, the
    compiler's assumed load latency, and the physical queue size. *)

type row = {
  bench : string;
  points : (string * float) list;
}

type study = {
  id : string;
  caption : string;
  unit_ : string;
  rows : row list;
}

val delivery : ?budget:int -> Sdiq_workloads.Bench.t list -> study
val bank_granularity : ?budget:int -> Sdiq_workloads.Bench.t list -> study
val slack :
  ?budget:int -> ?values:int list -> Sdiq_workloads.Bench.t list -> study
val load_latency :
  ?budget:int -> ?values:int list -> Sdiq_workloads.Bench.t list -> study

(** Every study on gzip, gap and vortex. Each distinct (benchmark,
    simulation) the studies read runs once, as one task on a
    {!Sdiq_util.Pool} of [domains] (default: the recommended count), and
    every study reads its rows from those runs; the result is identical
    for every domain count. *)
val all : ?budget:int -> ?domains:int -> unit -> study list

val pp_study : Format.formatter -> study -> unit
