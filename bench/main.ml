(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) and, with [--micro], times the core
   primitives with Bechamel.

   Default output: Table 1 (configuration), Table 2 (compilation time),
   Figures 6-12 as per-benchmark rows with the paper's reported averages
   alongside. One Bechamel test per table/figure (and per substrate
   primitive) runs in the micro section. *)

module H = Sdiq_harness

let print_table1 () =
  Fmt.pr "== table1: processor configuration ==@.%a@.@." Sdiq_cpu.Config.pp
    Sdiq_cpu.Config.default

let run_experiments ?domains ?ledger ~budget () =
  let r = H.Runner.create ?domains ~budget () in
  Fmt.pr
    "Running %d benchmarks x %d techniques at %d instructions each on %d \
     domain(s)...@."
    (List.length (H.Runner.bench_names r))
    (List.length H.Technique.all)
    budget (H.Runner.domains r);
  H.Runner.run_all r;
  (match H.Runner.campaign_stats r with
  | Some c ->
    Fmt.pr "%a@.@." H.Runner.pp_campaign c;
    Option.iter
      (fun file ->
        let digest =
          Sdiq_obs.Ledger.config_digest
            ~extra:(Printf.sprintf "budget=%d" budget)
            Sdiq_cpu.Config.default Sdiq_cpu.Sched.default
        in
        let record =
          Sdiq_obs.Ledger.make ~kind:"campaign" ~digest
            ~domains:c.H.Runner.domains_used ~pairs:c.H.Runner.pairs_total
            ~wall_s:c.H.Runner.wall_s ~energy:(H.Runner.energy_totals r) ()
        in
        Sdiq_obs.Ledger.append ~file record;
        Fmt.pr "ledger: appended campaign record to %s@.@." file)
      ledger
  | None -> ());
  print_table1 ();
  Fmt.pr "%a@." H.Experiments.pp_table2 (H.Experiments.table2 r);
  List.iter
    (fun e -> Fmt.pr "%a@." H.Experiments.pp_exp e)
    [
      H.Experiments.fig6 r;
      H.Experiments.fig7 r;
      H.Experiments.fig8 r;
      H.Experiments.fig9 r;
      H.Experiments.fig10 r;
      H.Experiments.fig11 r;
      H.Experiments.fig12 r;
    ]

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

let run_micro () =
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

let run_ablations ~budget () =
  Fmt.pr "@.== ablation studies (design choices from DESIGN.md) ==@.";
  List.iter
    (fun s -> Fmt.pr "%a@." H.Ablations.pp_study s)
    (H.Ablations.all ~budget ())

(* --- machine-readable MIPS probe ---------------------------------------- *)

(* The regression guard's input: wall-clock MIPS of the detailed no-sink
   hot path and of a whole-program sampled run on one mid-size workload,
   as one JSON object. CI archives this file per commit so a throughput
   regression is visible as a number diff, not an anecdote. Single-run
   wall-clock numbers carry ~±5% machine noise — treat small deltas as
   noise and trends as signal. *)
let write_mips_json ?ledger file =
  let outer = 120_000 in
  let mk () =
    H.Technique.build H.Technique.Baseline
      (Sdiq_workloads.W_gzip.build ~outer ())
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let policy = Sdiq_cpu.Sched.name Sdiq_cpu.Config.default.Sdiq_cpu.Config.sched in
  let p = mk () in
  let stats, detailed_s = time (fun () -> Sdiq_cpu.Pipeline.run p) in
  let detailed_insns = stats.Sdiq_cpu.Stats.committed in
  let p2 = mk () in
  let sampled, sampled_s = time (fun () -> H.Sampling.sample p2) in
  let mips insns s = if s > 0. then float_of_int insns /. s /. 1e6 else 0. in
  let oc = open_out file in
  Printf.fprintf oc
    {|{"workload":"gzip","policy":"%s","outer":%d,"detailed":{"instructions":%d,"seconds":%.4f,"mips":%.3f},"sampled":{"instructions":%d,"windows":%d,"seconds":%.4f,"mips":%.3f}}|}
    policy outer detailed_insns detailed_s
    (mips detailed_insns detailed_s)
    sampled.H.Sampling.total_insns sampled.H.Sampling.windows sampled_s
    (mips sampled.H.Sampling.total_insns sampled_s);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "mips: %s (detailed %.2f MIPS over %d instrs, sampled %.2f MIPS \
          over %d instrs)@."
    file
    (mips detailed_insns detailed_s)
    detailed_insns
    (mips sampled.H.Sampling.total_insns sampled_s)
    sampled.H.Sampling.total_insns;
  Option.iter
    (fun lfile ->
      (* MIPS is host wall-clock speed: scope the digest to this host so
         the strict ledger gate never compares records across machines
         (a fresh CI runner seeds its own trajectory instead of being
         diffed against whatever machine wrote the committed records). *)
      let digest =
        Sdiq_obs.Ledger.config_digest
          ~extra:
            (Printf.sprintf "mips:outer=%d:host=%s" outer
               (Sdiq_obs.Ledger.host_id ()))
          Sdiq_cpu.Config.default Sdiq_cpu.Config.default.Sdiq_cpu.Config.sched
      in
      let record =
        Sdiq_obs.Ledger.make ~kind:"mips" ~digest ~domains:1 ~pairs:2
          ~wall_s:(detailed_s +. sampled_s)
          ~mips_detailed:(mips detailed_insns detailed_s)
          ~mips_sampled:(mips sampled.H.Sampling.total_insns sampled_s)
          ()
      in
      Sdiq_obs.Ledger.append ~file:lfile record;
      Fmt.pr "ledger: appended mips record to %s@." lfile)
    ledger

(* [--domains N] caps the campaign pool; default is the hardware's
   recommended domain count. *)
let parse_opt_arg name argv =
  let n = Array.length argv in
  let rec find i =
    if i >= n then None
    else if argv.(i) = name && i + 1 < n then Some argv.(i + 1)
    else find (i + 1)
  in
  find 1

let parse_domains argv =
  Option.bind (parse_opt_arg "--domains" argv) int_of_string_opt

let () =
  let micro = Array.exists (fun a -> a = "--micro") Sys.argv in
  let ablations = Array.exists (fun a -> a = "--ablations") Sys.argv in
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let domains = parse_domains Sys.argv in
  let ledger = parse_opt_arg "--ledger" Sys.argv in
  let budget = if quick then 20_000 else 100_000 in
  match parse_opt_arg "--mips-json" Sys.argv with
  | Some file ->
    (* probe-only mode: CI runs this as a dedicated step *)
    write_mips_json ?ledger file
  | None ->
    run_experiments ?domains ?ledger ~budget ();
    if ablations then run_ablations ~budget:(budget / 2) ();
    if micro then run_micro ()
