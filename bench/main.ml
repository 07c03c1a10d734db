(* The Bechamel micro-suite: times the substrate primitives (IQ
   broadcast, cache access, branch prediction, pseudo-IQ and CDS
   analysis), one small simulation under each bus, checker and scheduler
   configuration, and each table/figure computation at a tiny scale.

     dune exec bench/main.exe

   bin/report.exe regenerates the paper's tables and figures;
   bench/perf measures end-to-end host speed. *)

module H = Sdiq_harness

(* --- Bechamel microbenchmarks ------------------------------------------ *)

open Bechamel
open Toolkit

let tiny_runner () =
  H.Runner.create ~budget:2_000
    ~benches:[ Sdiq_workloads.W_gzip.build ~outer:2_000 () ]
    ()

(* The same small simulation under four bus configurations:
   [simulate-nosink] runs with an empty bus (the fast path the refactor
   must keep free), [simulate-sinks] folds the full event stream into a
   per-kind counting sink, [simulate-profiled] attributes it to regions
   through the lib/obs profiler, and [simulate-checked] audits every
   cycle with the invariant checker. nosink/sinks is the bus delivery
   cost; nosink/profiled is the attribution overhead; nosink/checked is
   the checker's slowdown factor. [simulate-fast] is the same workload
   whole-program under SMARTS sampling — note it covers the entire
   program (~47 instructions per outer iteration) where the detailed
   variants stop after 2000 committed instructions, so the sampled
   speedup is (per-run time ratio) x (instruction-coverage ratio). *)
let bench_simulation ?sched ~variant () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:2_000 () in
  let p = H.Technique.build ?sched H.Technique.Baseline bench in
  (match variant with
  | `Nosink -> ()
  | `Sinks ->
    let c = Sdiq_events.Counts.create () in
    Sdiq_cpu.Pipeline.subscribe ~name:"counts" p (Sdiq_events.Counts.sink c)
  | `Profiled ->
    let map = Sdiq_obs.Region.build Sdiq_obs.Region.Plain
        bench.Sdiq_workloads.Bench.prog
    in
    ignore (Sdiq_obs.Profiler.attach map p : Sdiq_obs.Profiler.t)
  | `Checked -> ignore (Sdiq_check.Checker.attach p : Sdiq_check.Checker.t));
  Sdiq_cpu.Pipeline.run ~max_insns:2_000 p

let bench_simulation_fast () =
  let p =
    H.Technique.build H.Technique.Baseline
      (Sdiq_workloads.W_gzip.build ~outer:2_000 ())
  in
  H.Sampling.sample
    ~config:{ H.Sampling.ff_len = 2_000; warmup_len = 300; window_len = 300 }
    p

let bench_experiment name f =
  Test.make ~name (Staged.stage (fun () -> Sys.opaque_identity (f ())))

let micro_tests () =
  let open Sdiq_isa in
  let r = Reg.int in
  (* substrate primitives *)
  let iq = Sdiq_cpu.Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  for i = 0 to 39 do
    ignore
      (Sdiq_cpu.Iq.dispatch iq ~rob_idx:i ~ops:[ (i, false); (i + 100, true) ])
  done;
  let cache = Sdiq_cpu.Cache.create ~sets:512 ~ways:4 ~line:32 in
  let bpred = Sdiq_cpu.Branch_pred.create Sdiq_cpu.Config.default in
  let block =
    Array.init 24 (fun i ->
        Instr.make ~dst:(r ((i mod 8) + 1)) ~src1:(r (((i + 3) mod 8) + 1))
          ~imm:i Opcode.Addi)
  in
  let loop_body =
    Array.init 12 (fun i ->
        Instr.make ~dst:(r ((i mod 6) + 1)) ~src1:(r ((i mod 6) + 1)) ~imm:1
          Opcode.Addi)
  in
  let counter = ref 0 in
  [
    Test.make ~name:"iq-broadcast"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Sdiq_cpu.Iq.broadcast_many iq [ 7; 13 ])));
    Test.make ~name:"cache-access"
      (Staged.stage (fun () ->
           incr counter;
           Sys.opaque_identity (Sdiq_cpu.Cache.access cache (!counter * 64))));
    Test.make ~name:"branch-predict"
      (Staged.stage (fun () ->
           incr counter;
           Sys.opaque_identity
             (Sdiq_cpu.Branch_pred.predict_direction bpred
                (!counter land 1023))));
    Test.make ~name:"pseudo-iq-block"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Sdiq_core.Pseudo_iq.analyze block)));
    Test.make ~name:"cds-loop-schedule"
      (Staged.stage (fun () ->
           let g = Sdiq_ddg.Ddg.of_loop_body loop_body in
           Sys.opaque_identity (Sdiq_ddg.Cds.schedule g)));
    (* bus + checker overhead: empty bus vs counting sink vs audited *)
    bench_experiment "simulate-nosink" (fun () ->
        bench_simulation ~variant:`Nosink ());
    bench_experiment "simulate-sinks" (fun () ->
        bench_simulation ~variant:`Sinks ());
    bench_experiment "simulate-profiled" (fun () ->
        bench_simulation ~variant:`Profiled ());
    bench_experiment "simulate-checked" (fun () ->
        bench_simulation ~variant:`Checked ());
    bench_experiment "simulate-fast" (fun () -> bench_simulation_fast ());
    (* scheduler-policy axis: the same nosink run under a bounded select
       scan and under load-delay wakeup suppression — against
       simulate-nosink these price the policy's host-side overhead *)
    bench_experiment "simulate-nskip" (fun () ->
        bench_simulation ~sched:(Sdiq_cpu.Sched.nskip ~n:4) ~variant:`Nosink ());
    bench_experiment "simulate-loaddelay" (fun () ->
        bench_simulation ~sched:Sdiq_cpu.Sched.load_delay ~variant:`Nosink ());
    (* one bench per table/figure: the full computation at a tiny scale *)
    bench_experiment "table2" (fun () -> H.Experiments.table2 (tiny_runner ()));
    bench_experiment "fig6" (fun () -> H.Experiments.fig6 (tiny_runner ()));
    bench_experiment "fig7" (fun () -> H.Experiments.fig7 (tiny_runner ()));
    bench_experiment "fig8" (fun () -> H.Experiments.fig8 (tiny_runner ()));
    bench_experiment "fig9" (fun () -> H.Experiments.fig9 (tiny_runner ()));
    bench_experiment "fig10" (fun () -> H.Experiments.fig10 (tiny_runner ()));
    bench_experiment "fig11" (fun () -> H.Experiments.fig11 (tiny_runner ()));
    bench_experiment "fig12" (fun () -> H.Experiments.fig12 (tiny_runner ()));
  ]

let () =
  Fmt.pr "== microbenchmarks (Bechamel) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:(Some 50) ()
  in
  let tests = Test.make_grouped ~name:"sdiq" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ t ] -> Fmt.pr "  %-28s %12.1f ns/run@." name t
      | Some _ | None -> Fmt.pr "  %-28s (no estimate)@." name)
    results
