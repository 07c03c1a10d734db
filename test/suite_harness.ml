(* Tests for the experiment harness: technique preparation, the runner's
   memoisation, and the figure generators' well-formedness. *)

open Sdiq_isa
module H = Sdiq_harness

let small_runner () =
  H.Runner.create ~budget:4_000
    ~benches:
      [
        Sdiq_workloads.W_gzip.build ~outer:4_000 ();
        Sdiq_workloads.W_crafty.build ~outer:4_000 ();
      ]
    ()

let test_technique_names_unique () =
  let names = List.map H.Technique.name H.Technique.all in
  Alcotest.(check int) "five techniques" 5 (List.length names);
  Alcotest.(check int) "unique names" 5
    (List.length (List.sort_uniq compare names))

let test_prepare_baseline_is_identity () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:100 () in
  let p = H.Technique.prepare H.Technique.Baseline bench.Sdiq_workloads.Bench.prog in
  Alcotest.(check bool) "same program" true
    (p == bench.Sdiq_workloads.Bench.prog)

let test_prepare_noop_inserts () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:100 () in
  let p = H.Technique.prepare H.Technique.Noop bench.Sdiq_workloads.Bench.prog in
  Alcotest.(check bool) "iqsets inserted" true
    (Prog.count_matching p (fun i -> i.Instr.op = Opcode.Iqset) > 0)

let test_prepare_extension_tags () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:100 () in
  let p =
    H.Technique.prepare H.Technique.Extension bench.Sdiq_workloads.Bench.prog
  in
  Alcotest.(check int) "no instructions added"
    (Prog.length bench.Sdiq_workloads.Bench.prog)
    (Prog.length p);
  Alcotest.(check bool) "tags present" true
    (Prog.count_matching p (fun i -> i.Instr.tag <> None) > 0)

let test_runner_memoises () =
  let r = small_runner () in
  let s1 = H.Runner.run r "gzip" H.Technique.Baseline in
  let s2 = H.Runner.run r "gzip" H.Technique.Baseline in
  Alcotest.(check bool) "same stats object" true (s1 == s2)

(* A timeline sampler rides the machine without changing its run: the
   sampled run is the one the runner reports under the same scheduler,
   and the control run below proves the two policies diverge here. *)
let test_timeline_honours_sched () =
  let budget = 3_000 in
  let bench = Sdiq_workloads.W_gzip.build ~outer:budget () in
  let sched = Sdiq_cpu.Sched.nskip ~n:1 in
  let r = H.Runner.create ~budget ~benches:[ bench ] ~domains:1 () in
  let stats = H.Runner.run ~sched r "gzip" H.Technique.Noop in
  let p = H.Technique.build ~sched H.Technique.Noop bench in
  let tl = H.Timeline.attach p in
  Alcotest.(check bool) "timeline stats == runner stats under nskip:1" true
    (Sdiq_cpu.Stats.equal (Sdiq_cpu.Pipeline.run ~max_insns:budget p) stats);
  Alcotest.(check bool) "control: nskip:1 differs from oldest_first" false
    (Sdiq_cpu.Stats.equal stats (H.Runner.run r "gzip" H.Technique.Noop));
  let last = List.hd (List.rev (H.Timeline.samples tl)) in
  Alcotest.(check bool) "last sample within one interval of the end" true
    (stats.Sdiq_cpu.Stats.cycles - last.H.Timeline.cycle <= 200)

let test_runner_unknown_bench () =
  let r = small_runner () in
  match H.Runner.run r "nonesuch" H.Technique.Baseline with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_find_bench_error_lists_names () =
  let r = small_runner () in
  match H.Runner.find_bench r "nonesuch" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the culprit" true
      (Test_util.contains ~needle:"nonesuch" msg);
    List.iter
      (fun known ->
        Alcotest.(check bool)
          (Printf.sprintf "lists %S" known)
          true (Test_util.contains ~needle:known msg))
      (H.Runner.bench_names r)

let test_savings_well_formed () =
  let r = small_runner () in
  let s = H.Runner.savings r "gzip" H.Technique.Noop in
  Alcotest.(check bool) "ipc loss bounded" true
    (abs_float s.Sdiq_power.Report.ipc_loss_pct < 60.);
  Alcotest.(check bool) "dynamic saving bounded" true
    (s.Sdiq_power.Report.iq_dynamic_saving_pct < 100.)

let test_fig6_structure () =
  let r = small_runner () in
  let e = H.Experiments.fig6 r in
  Alcotest.(check string) "id" "fig6" e.H.Experiments.id;
  Alcotest.(check int) "one column" 1 (List.length e.H.Experiments.columns);
  let c = List.hd e.H.Experiments.columns in
  Alcotest.(check int) "one row per benchmark" 2
    (List.length c.H.Experiments.per_bench);
  Alcotest.(check bool) "paper average recorded" true
    (c.H.Experiments.paper_avg = Some 2.2);
  Alcotest.(check int) "abella extra bar" 1
    (List.length c.H.Experiments.extras)

let test_fig8_has_nonempty_bar () =
  let r = small_runner () in
  let e = H.Experiments.fig8 r in
  let dynamic = List.hd e.H.Experiments.columns in
  Alcotest.(check bool) "nonEmpty bar present" true
    (List.exists (fun (l, _, _) -> l = "nonEmpty") dynamic.H.Experiments.extras)

let test_fig10_four_columns () =
  let r = small_runner () in
  let e = H.Experiments.fig10 r in
  Alcotest.(check int) "noop/extension/improved/abella" 4
    (List.length e.H.Experiments.columns)

let test_all_figures_generate () =
  let r = small_runner () in
  List.iter
    (fun f ->
      let e = f r in
      List.iter
        (fun (c : H.Experiments.column) ->
          List.iter
            (fun (_, v) ->
              Alcotest.(check bool)
                (e.H.Experiments.id ^ " finite values")
                true
                (Float.is_finite v))
            c.H.Experiments.per_bench)
        e.H.Experiments.columns)
    [
      H.Experiments.fig6; H.Experiments.fig7; H.Experiments.fig8;
      H.Experiments.fig9; H.Experiments.fig10; H.Experiments.fig11;
      H.Experiments.fig12;
    ]

let test_table2_covers_suite () =
  let r = small_runner () in
  let rows = H.Experiments.table2 r in
  Alcotest.(check int) "one row per bench" 2 (List.length rows);
  List.iter
    (fun (row : H.Experiments.table2_row) ->
      Alcotest.(check bool) "limited >= baseline" true
        (row.H.Experiments.limited_ms >= row.H.Experiments.baseline_ms -. 0.5))
    rows

let suite =
  [
    Alcotest.test_case "technique names" `Quick test_technique_names_unique;
    Alcotest.test_case "baseline prepare is identity" `Quick
      test_prepare_baseline_is_identity;
    Alcotest.test_case "noop prepare inserts" `Quick test_prepare_noop_inserts;
    Alcotest.test_case "extension prepare tags" `Quick
      test_prepare_extension_tags;
    Alcotest.test_case "runner memoises" `Quick test_runner_memoises;
    Alcotest.test_case "runner unknown bench" `Quick test_runner_unknown_bench;
    Alcotest.test_case "timeline honours sched" `Quick
      test_timeline_honours_sched;
    Alcotest.test_case "find_bench error lists names" `Quick
      test_find_bench_error_lists_names;
    Alcotest.test_case "savings well-formed" `Quick test_savings_well_formed;
    Alcotest.test_case "fig6 structure" `Quick test_fig6_structure;
    Alcotest.test_case "fig8 nonEmpty bar" `Quick test_fig8_has_nonempty_bar;
    Alcotest.test_case "fig10 four columns" `Quick test_fig10_four_columns;
    Alcotest.test_case "all figures generate" `Slow test_all_figures_generate;
    Alcotest.test_case "table2 covers suite" `Quick test_table2_covers_suite;
  ]
