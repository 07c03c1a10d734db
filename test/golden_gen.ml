(* Regenerates the expected-value table in suite_golden.ml:

     dune exec test/golden_gen.exe

   paste the output over the [golden] list. Run it after any intentional
   change to pipeline timing or power accounting, and say in the commit
   message why the numbers moved. *)

let () =
  let runner =
    Sdiq_harness.Runner.create ~budget:2_000
      ~benches:(Sdiq_workloads.Suite.tiny ())
      ()
  in
  Sdiq_harness.Runner.run_all runner;
  print_endline "let golden =";
  print_endline "  [";
  List.iter
    (fun name ->
      List.iter
        (fun tech ->
          let s = Sdiq_harness.Runner.run runner name tech in
          let bench = Sdiq_harness.Runner.find_bench runner name in
          let regions =
            Sdiq_obs.Region.count
              (Sdiq_obs.Region.build
                 (Sdiq_harness.Technique.recipe tech)
                 bench.Sdiq_workloads.Bench.prog)
          in
          Printf.printf
            "    (%S, Technique.%s, { cycles = %d; committed = %d; \
             iq_banks_on_sum = %d; iq_wakeups_gated = %d; iq_scan_entries = \
             %d; iq_wakeups_suppressed = %d; regions = %d });\n"
            name
            (match tech with
            | Sdiq_harness.Technique.Baseline -> "Baseline"
            | Sdiq_harness.Technique.Noop -> "Noop"
            | Sdiq_harness.Technique.Extension -> "Extension"
            | Sdiq_harness.Technique.Improved -> "Improved"
            | Sdiq_harness.Technique.Abella -> "Abella"
            | Sdiq_harness.Technique.Tightened -> "Tightened")
            s.Sdiq_cpu.Stats.cycles s.Sdiq_cpu.Stats.committed
            s.Sdiq_cpu.Stats.iq_banks_on_sum s.Sdiq_cpu.Stats.iq_wakeups_gated
            s.Sdiq_cpu.Stats.iq_scan_entries
            s.Sdiq_cpu.Stats.iq_wakeups_suppressed regions)
        Sdiq_harness.Technique.all)
    (Sdiq_harness.Runner.bench_names runner);
  print_endline "  ]"
