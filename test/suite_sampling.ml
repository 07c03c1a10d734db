(* Sampled simulation (lib/harness/sampling.ml): the SMARTS estimator
   against ground truth, and the determinism the campaign relies on.

   The load-bearing property: for any benchmark, technique and sane
   sampling geometry, the sampled estimator's 95% confidence interval
   contains the full-detail run's value — for IPC, for gated wakeups
   per instruction, and for IQ energy per instruction. The full run is
   the same program simulated in detail end to end, so this is an
   end-to-end accuracy check of fast-forward state-warming, window
   measurement and the interval itself. *)

module H = Sdiq_harness
module Sampling = Sdiq_harness.Sampling
module Stats = Sdiq_cpu.Stats
module Pipeline = Sdiq_cpu.Pipeline
module Technique = Sdiq_harness.Technique

(* Full-detail ground truth for the three estimated quantities. *)
let ground_truth bench tech =
  let p = Technique.build tech bench in
  let stats = Pipeline.run p in
  let c = float_of_int stats.Stats.committed in
  let e =
    Sdiq_power.Iq_power.technique Sdiq_power.Params.default stats
  in
  ( Stats.ipc stats,
    float_of_int stats.Stats.iq_wakeups_gated /. c,
    (e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_) /. c )

(* --- estimator unit behaviour ------------------------------------------- *)

let test_estimate_constant_ratio () =
  (* Identical windows: the ratio is exact, the CI collapses to the
     conservative floor (15% below 30 windows). *)
  let xs = Array.make 10 20. and ys = Array.make 10 10. in
  let e = Sampling.estimate xs ys in
  Alcotest.(check (float 1e-9)) "mean" 2.0 e.Sampling.mean;
  Alcotest.(check (float 1e-9)) "floored CI" 0.3 e.Sampling.ci_half;
  Alcotest.(check int) "n" 10 e.Sampling.n;
  Alcotest.(check bool) "contains truth" true (Sampling.contains e 2.0);
  Alcotest.(check bool) "excludes far value" false (Sampling.contains e 3.0)

let test_estimate_single_window () =
  (* One window: no variance estimate exists, so the interval must be
     maximally humble (half-width = |mean|). *)
  let e = Sampling.estimate [| 5. |] [| 10. |] in
  Alcotest.(check (float 1e-9)) "mean" 0.5 e.Sampling.mean;
  Alcotest.(check (float 1e-9)) "CI is |mean|" 0.5 e.Sampling.ci_half

(* --- CI containment on benchmarks (fixed geometry) ----------------------- *)

let benches () =
  [
    Sdiq_workloads.W_gzip.build ~outer:25_000 ();
    Sdiq_workloads.W_mcf.build ~outer:50_000 ();
  ]

let test_ci_contains_full_run () =
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      List.iter
        (fun tech ->
          let ipc, wpi, epi = ground_truth bench tech in
          let r = Sampling.sample (Technique.build tech bench) in
          let name what =
            Fmt.str "%s/%s: CI contains full-run %s"
              bench.Sdiq_workloads.Bench.name (Technique.name tech) what
          in
          Alcotest.(check bool) (name "ipc") true
            (Sampling.contains r.Sampling.ipc ipc);
          Alcotest.(check bool) (name "wakeups/insn") true
            (Sampling.contains r.Sampling.wakeups_per_insn wpi);
          Alcotest.(check bool) (name "energy/insn") true
            (Sampling.contains r.Sampling.energy_per_insn epi))
        [ Technique.Baseline; Technique.Noop; Technique.Abella ])
    (benches ())

(* --- CI containment under random geometry (qcheck) ----------------------- *)

(* Random sampling geometries stay within the regime the methodology
   documents as trustworthy (DESIGN.md §13): warmup no shorter than
   8k instructions and enough periods for >= 10 windows on a ~1M
   instruction program. The floor rose from 2k when the speculative
   frontend landed: functional fast-forward cannot reproduce wrong-path
   cache and BTB pollution, so the detailed warmup must rebuild it, and
   shorter warmups leave a measurable IPC-high / wakeups-low bias on
   branch-heavy code (the pollution horizon is roughly 8k instructions
   on the gzip kernel). *)
let arbitrary_geometry =
  let open QCheck.Gen in
  let gen =
    let* ff_len = int_range 10_000 60_000 in
    let* warmup_len = int_range 8_000 12_000 in
    let* window_len = int_range 1_000 4_000 in
    return { Sampling.ff_len; warmup_len; window_len }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "{ff=%d; warmup=%d; window=%d}" c.Sampling.ff_len
        c.Sampling.warmup_len c.Sampling.window_len)
    gen

let prop_ci_contains_full_run =
  let bench = Sdiq_workloads.W_gzip.build ~outer:25_000 () in
  let ipc, wpi, epi = ground_truth bench Technique.Noop in
  QCheck.Test.make ~count:6
    ~name:"sampled CI contains full-run value under random geometry"
    arbitrary_geometry
    (fun config ->
      let r = Sampling.sample ~config (Technique.build Technique.Noop bench) in
      Sampling.contains r.Sampling.ipc ipc
      && Sampling.contains r.Sampling.wakeups_per_insn wpi
      && Sampling.contains r.Sampling.energy_per_insn epi)

(* --- determinism ---------------------------------------------------------- *)

(* Two sampled runs of the same pair are bit-identical: window count,
   summed window statistics, and every estimate. *)
let test_sampled_run_deterministic () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:25_000 () in
  let r1 = Sampling.sample (Technique.build Technique.Noop bench) in
  let r2 = Sampling.sample (Technique.build Technique.Noop bench) in
  Alcotest.(check int) "insns" r1.Sampling.total_insns r2.Sampling.total_insns;
  Alcotest.(check int) "windows" r1.Sampling.windows r2.Sampling.windows;
  Alcotest.(check bool) "window stats" true
    (Stats.equal r1.Sampling.window_stats r2.Sampling.window_stats);
  List.iter
    (fun (what, (a : Sampling.estimate), (b : Sampling.estimate)) ->
      Alcotest.(check (float 0.)) (what ^ " mean") a.Sampling.mean
        b.Sampling.mean;
      Alcotest.(check (float 0.)) (what ^ " ci") a.Sampling.ci_half
        b.Sampling.ci_half)
    [
      ("ipc", r1.Sampling.ipc, r2.Sampling.ipc);
      ("wpi", r1.Sampling.wakeups_per_insn, r2.Sampling.wakeups_per_insn);
      ("epi", r1.Sampling.energy_per_insn, r2.Sampling.energy_per_insn);
    ]

(* The campaign variant: a 1-domain and a 3-domain sampled campaign
   produce identical tables — the disjoint-slot discipline of
   [Runner.run_all_sampled] holds for the sampled memo too. *)
let test_sampled_campaign_domain_identity () =
  let mk domains =
    H.Runner.create
      ~benches:
        [
          Sdiq_workloads.W_gzip.build ~outer:8_000 ();
          Sdiq_workloads.W_mcf.build ~outer:20_000 ();
        ]
      ~domains ()
  in
  let r1 = mk 1 and r3 = mk 3 in
  H.Runner.run_all_sampled r1;
  H.Runner.run_all_sampled r3;
  List.iter
    (fun bench ->
      List.iter
        (fun tech ->
          let a = H.Runner.run_sampled r1 bench tech in
          let b = H.Runner.run_sampled r3 bench tech in
          let name what =
            Fmt.str "%s/%s: %s identical on 1 vs 3 domains" bench
              (Technique.name tech) what
          in
          Alcotest.(check int) (name "insns") a.Sampling.total_insns
            b.Sampling.total_insns;
          Alcotest.(check int) (name "windows") a.Sampling.windows
            b.Sampling.windows;
          Alcotest.(check bool) (name "window stats") true
            (Stats.equal a.Sampling.window_stats b.Sampling.window_stats);
          Alcotest.(check (float 0.)) (name "ipc") a.Sampling.ipc.Sampling.mean
            b.Sampling.ipc.Sampling.mean;
          Alcotest.(check (float 0.))
            (name "energy/insn")
            a.Sampling.energy_per_insn.Sampling.mean
            b.Sampling.energy_per_insn.Sampling.mean)
        Technique.all)
    (H.Runner.bench_names r1)

(* --- full-detail equivalence of the sampled machinery --------------------- *)

(* A sampled run whose fast-forward length is zero is just detailed
   simulation cut into windows: its summed window statistics must agree
   with a plain run on committed work (windows exclude the pre-warmup
   and post-drain tails, so only the per-instruction ratios match, not
   the totals — compare those). *)
let test_zero_ff_matches_detailed_ratios () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:8_000 () in
  let ipc, wpi, _ = ground_truth bench Technique.Baseline in
  let r =
    Sampling.sample
      ~config:{ Sampling.ff_len = 0; warmup_len = 1_000; window_len = 4_000 }
      (Technique.build Technique.Baseline bench)
  in
  Alcotest.(check bool) "ipc within CI" true (Sampling.contains r.Sampling.ipc ipc);
  Alcotest.(check bool) "wakeups within CI" true
    (Sampling.contains r.Sampling.wakeups_per_insn wpi);
  (* with ff=0 nearly the whole run is detailed *)
  Alcotest.(check bool) "mostly detailed" true
    (Sampling.detailed_fraction r > 0.5)

(* The degenerate geometry — no fast-forward, no warmup, one window
   wider than the program — is detailed simulation in a sampling coat:
   the single measured window spans the whole run, so its statistics
   delta must equal a plain detailed run field for field ([Stats.equal],
   not ratios-within-CI). Speculation is on (the default config), so
   this also pins that the sampling loop's drain / fast-forward(0) /
   fetch-hold bracketing is neutral to wrong-path fetch, squash and TLB
   counters. *)
let test_zero_ff_single_window_equals_detailed () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:8_000 () in
  List.iter
    (fun tech ->
      let full = Pipeline.run (Technique.build tech bench) in
      let r =
        Sampling.sample
          ~config:
            { Sampling.ff_len = 0; warmup_len = 0; window_len = max_int / 2 }
          (Technique.build tech bench)
      in
      let name what =
        Fmt.str "%s: %s" (Technique.name tech) what
      in
      Alcotest.(check int) (name "one window") 1 r.Sampling.windows;
      Alcotest.(check bool)
        (name "window stats equal the detailed run's") true
        (Stats.equal r.Sampling.window_stats full);
      Alcotest.(check bool) (name "speculation active") true
        (full.Stats.wp_fetched > 0 && full.Stats.squashes > 0))
    [ Technique.Baseline; Technique.Noop ]

(* An instruction budget that expires mid-fast-forward does not cancel
   the period already started: the guard for warmup + window is the
   post-drain check, so the measured window still runs and the result
   records it. Pins the boundary case so the window geometry (and with
   it detailed_insns and every per-insn estimate) of budget-limited
   sampled runs can't change silently. *)
let test_budget_crossed_mid_ff_still_measures () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:8_000 () in
  let r =
    Sampling.sample
      ~config:{ Sampling.ff_len = 5_000; warmup_len = 500; window_len = 500 }
      ~max_insns:3_000
      (Technique.build Technique.Baseline bench)
  in
  Alcotest.(check int) "the started period is measured" 1 r.Sampling.windows;
  Alcotest.(check bool) "window committed instructions" true
    (r.Sampling.detailed_insns > 0);
  Alcotest.(check bool) "budget crossed during fast-forward" true
    (r.Sampling.total_insns >= 5_000)

(* Fast-forward must warm the predictor exactly as detailed fetch trains
   it. With speculative fetch off, detailed fetch touches the predictor
   only on the correct path, so running a program to completion in
   detail and fast-forwarding all of it must leave structurally equal
   direction tables, BTB, RAS and counters. (With speculation on the
   wrong path also reads the BTB and moves the RAS, so they differ.) *)
let test_ff_trains_predictor_like_fetch () =
  let config = { Sdiq_cpu.Config.default with speculative_fetch = false } in
  List.iter
    (fun (b : Sdiq_workloads.Bench.t) ->
      let build () =
        let p = Pipeline.create ~config b.Sdiq_workloads.Bench.prog in
        b.Sdiq_workloads.Bench.init p.Pipeline.exec;
        p
      in
      let detailed = build () in
      ignore (Pipeline.run detailed : Stats.t);
      let ff = build () in
      ignore (Pipeline.fast_forward ff ~insns:max_int : int);
      Alcotest.(check bool)
        (b.Sdiq_workloads.Bench.name ^ ": predictor state equal")
        true
        (detailed.Pipeline.bpred = ff.Pipeline.bpred))
    (Sdiq_workloads.Suite.tiny ())

let suite =
  [
    Alcotest.test_case "estimator: constant ratio, floored CI" `Quick
      test_estimate_constant_ratio;
    Alcotest.test_case "estimator: single window is humble" `Quick
      test_estimate_single_window;
    Alcotest.test_case "CI contains full run (benchmarks x techniques)" `Quick
      test_ci_contains_full_run;
    QCheck_alcotest.to_alcotest prop_ci_contains_full_run;
    Alcotest.test_case "sampled run deterministic" `Quick
      test_sampled_run_deterministic;
    Alcotest.test_case "sampled campaign identical on 1 vs 3 domains" `Quick
      test_sampled_campaign_domain_identity;
    Alcotest.test_case "zero fast-forward matches detailed ratios" `Quick
      test_zero_ff_matches_detailed_ratios;
    Alcotest.test_case "single whole-run window equals detailed stats" `Quick
      test_zero_ff_single_window_equals_detailed;
    Alcotest.test_case "budget crossed mid-ff still measures the period"
      `Quick test_budget_crossed_mid_ff_still_measures;
    Alcotest.test_case "fast-forward trains the predictor like fetch" `Quick
      test_ff_trains_predictor_like_fetch;
  ]
