(* The tightened configuration, end to end: every benchmark re-audits
   clean under the trip-count-refined soundness pass, the tightened
   binary commits the exact same instruction stream as the baseline
   (tag delivery changes metadata bits only), and on the measured grid
   its IQ energy never exceeds the "Improved" configuration it
   narrows. *)

module Technique = Sdiq_harness.Technique
module Driver = Sdiq_analysis.Driver
module Finding = Sdiq_analysis.Finding

(* --- static: the whole suite audits clean -------------------------------- *)

let test_audit_clean () =
  let mode = Option.get (Driver.mode_named "tightened") in
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      let findings = Driver.audit_mode mode bench.Sdiq_workloads.Bench.prog in
      Alcotest.(check int)
        (bench.Sdiq_workloads.Bench.name ^ " tightened audit errors")
        0 (Finding.errors findings))
    (Sdiq_workloads.Suite.all ())

(* Tightening must actually tighten somewhere: across the suite some
   anchors end up strictly narrower than the Improved analysis grants.
   (Guards against a regression that silently re-emits the old windows
   and turns the whole pass into a no-op.) *)
let test_narrows_somewhere () =
  let narrowed, reduction =
    List.fold_left
      (fun (n, r) (bench : Sdiq_workloads.Bench.t) ->
        let prog = bench.Sdiq_workloads.Bench.prog in
        let _, nb, rb =
          Sdiq_analysis.Tighten.narrowing
            ~tripcounts:(Sdiq_analysis.Tripcount.of_program prog)
            prog
        in
        (n + nb, r + rb))
      (0, 0) (Sdiq_workloads.Suite.all ())
  in
  if narrowed = 0 || reduction = 0 then
    Alcotest.failf "tightening narrowed nothing (%d anchors, -%d entries)"
      narrowed reduction

(* --- dynamic: committed work identical to baseline ----------------------- *)

(* Tag bits are the Extension encoding — metadata the architecture
   never reads; normalise them away and everything else must match. *)
let untag (d : Sdiq_isa.Exec.dyn) =
  {
    d with
    Sdiq_isa.Exec.instr =
      { d.Sdiq_isa.Exec.instr with Sdiq_isa.Instr.tag = None };
  }

let committed_trace prog tech =
  let prepared = Technique.prepare tech prog in
  let p =
    Sdiq_cpu.Pipeline.create ~policy:(Technique.policy tech) prepared
  in
  let commits = ref [] in
  Sdiq_cpu.Pipeline.on_commit_sink p (fun d -> commits := d :: !commits);
  ignore (Sdiq_cpu.Pipeline.run ~max_cycles:3_000_000 p : Sdiq_cpu.Stats.t);
  (Array.of_list (List.rev_map untag !commits), p.Sdiq_cpu.Pipeline.exec)

let test_commits_identical_to_baseline () =
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      let name = bench.Sdiq_workloads.Bench.name in
      let prog = bench.Sdiq_workloads.Bench.prog in
      let trace_b, exec_b = committed_trace prog Technique.Baseline in
      let trace_t, exec_t = committed_trace prog Technique.Tightened in
      if compare trace_b trace_t <> 0 then
        Alcotest.failf "%s: committed trace differs from baseline (%d vs %d)"
          name (Array.length trace_b) (Array.length trace_t);
      Alcotest.(check int)
        (name ^ " final pc")
        exec_b.Sdiq_isa.Exec.pc exec_t.Sdiq_isa.Exec.pc;
      Alcotest.(check int)
        (name ^ " retired instructions")
        exec_b.Sdiq_isa.Exec.steps exec_t.Sdiq_isa.Exec.steps;
      if compare exec_b.Sdiq_isa.Exec.iregs exec_t.Sdiq_isa.Exec.iregs <> 0
      then Alcotest.failf "%s: final int registers differ" name;
      if compare exec_b.Sdiq_isa.Exec.fregs exec_t.Sdiq_isa.Exec.fregs <> 0
      then Alcotest.failf "%s: final fp registers differ" name)
    (Sdiq_workloads.Suite.tiny ())

(* --- dynamic: grid energy no worse than Improved ------------------------- *)

let test_grid_energy_no_worse () =
  let params = Sdiq_power.Params.default in
  let energy stats =
    let e = Sdiq_power.Iq_power.technique params stats in
    e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_
  in
  let runner =
    Sdiq_harness.Runner.create ~budget:2_000
      ~benches:(Sdiq_workloads.Suite.tiny ())
      ()
  in
  let tot_imp = ref 0. and tot_tight = ref 0. in
  List.iter
    (fun name ->
      let base = Sdiq_harness.Runner.run runner name Technique.Baseline in
      let imp = Sdiq_harness.Runner.run runner name Technique.Improved in
      let tight = Sdiq_harness.Runner.run runner name Technique.Tightened in
      tot_imp := !tot_imp +. energy imp;
      tot_tight := !tot_tight +. energy tight;
      (* The budgeted runner cuts off at ~budget commits, and the cutoff
         cycle's commit bundle differs by up to the commit width across
         techniques; exact stream identity is pinned by the full-run
         trace test above. *)
      let drift =
        abs (base.Sdiq_cpu.Stats.committed - tight.Sdiq_cpu.Stats.committed)
      in
      if drift > 8 then
        Alcotest.failf "%s: committed drift %d exceeds the commit width" name
          drift)
    (Sdiq_harness.Runner.bench_names runner);
  if !tot_tight > !tot_imp then
    Alcotest.failf "grid IQ energy regressed: tightened %.1f > improved %.1f"
      !tot_tight !tot_imp

let suite =
  [
    Alcotest.test_case "all benchmarks tighten audit-clean" `Quick
      test_audit_clean;
    Alcotest.test_case "tightening narrows some window" `Quick
      test_narrows_somewhere;
    Alcotest.test_case "tightened commits identical to baseline" `Quick
      test_commits_identical_to_baseline;
    Alcotest.test_case "grid IQ energy <= improved" `Quick
      test_grid_energy_no_worse;
  ]
