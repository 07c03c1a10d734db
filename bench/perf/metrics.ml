(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json repeats [end_to_end] and [per_layer]; the smoke test
   fails when the two disagree. *)

type t = { name : string; unit : string; better : Sdiq_perf.Verdict.better }

let m name unit better = { name; unit; better }
let lower = Sdiq_perf.Verdict.Lower
let higher = Sdiq_perf.Verdict.Higher

(* Host time throughout; medians over untraced reps. *)
let end_to_end =
  [
    m "setup_s" "s" lower;
    m "wall_s" "s" lower;
    m "mips" "Minstr/s" higher;
    m "peak_rss_mb" "MB" lower;
  ]

(* Reported in the result file but not in BENCHMARK.json: a failure
   fraction reads 0 on a healthy run (the result line's [failed] carries
   it), and the paper gap is exact and exists on paper-grid only. *)
let end_to_end_extra = [ m "failed_frac" "ratio" lower; m "paper_gap_pp" "pp" lower ]

(* From the traced rep, except gc.* and workloads.build_s (medians over
   the untraced reps). Layers a workload does not exercise read 0. *)
let per_layer =
  [
    m "workloads.build_s" "s" lower;
    m "workloads.init.s" "s" lower;
    m "workloads.init.share" "ratio" lower;
    m "pool.busy_frac" "ratio" higher;
    m "pool.steal_frac" "ratio" higher;
    m "pool.tail_s" "s" lower;
    m "runner.pair_s.p50" "s" lower;
    m "runner.pair_s.tail" "s" lower;
    m "runner.pair_s.max" "s" lower;
    m "prepare.calls" "count" lower;
    m "prepare.s" "s" lower;
    m "prepare.share" "ratio" lower;
    m "prepare.dup_frac" "ratio" lower;
    m "pipeline.create.s" "s" lower;
    m "pipeline.create.share" "ratio" lower;
    m "pipeline.run.s" "s" lower;
    m "pipeline.run.share" "ratio" lower;
    m "pipeline.run.mips" "Minstr/s" higher;
    m "pipeline.run.ns_per_cycle" "ns" lower;
    m "pipeline.run.wp_frac" "ratio" lower;
    m "pipeline.run.scan_per_select" "entries" lower;
    m "sampling.self_s" "s" lower;
    m "sampling.ff.s" "s" lower;
    m "sampling.ff.share" "ratio" lower;
    m "sampling.ff.mips" "Minstr/s" higher;
    m "sampling.detailed.s" "s" lower;
    m "sampling.detailed.mips" "Minstr/s" higher;
    m "sampling.detailed_frac" "ratio" lower;
    m "exec.oracle.mips" "Minstr/s" higher;
    m "analysis.audit.s" "s" lower;
    m "analysis.audit.share" "ratio" lower;
    m "analysis.tighten.s" "s" lower;
    m "analysis.certificate.s" "s" lower;
    m "analysis.errors" "count" lower;
    m "gc.minor_words_per_insn" "words" lower;
    m "gc.major_collections" "count" lower;
    m "gc.top_heap_mb" "MB" lower;
    m "trace.overhead_frac" "ratio" lower;
    m "trace.coverage_frac" "ratio" higher;
  ]

let better_name = function
  | Sdiq_perf.Verdict.Lower -> "lower"
  | Sdiq_perf.Verdict.Higher -> "higher"
