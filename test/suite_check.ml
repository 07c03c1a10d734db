(* Tests for lib/check: the invariant checker and the differential
   oracle harness — including deliberate sabotage, which both layers
   must catch. *)

open Sdiq_isa
module Pipeline = Sdiq_cpu.Pipeline
module Policy = Sdiq_cpu.Policy
module Checker = Sdiq_check.Checker
module Differential = Sdiq_check.Differential
module Gen = Sdiq_workloads.Gen
module Technique = Sdiq_harness.Technique

let r = Reg.int

(* A small program with enough ILP variety to exercise every checker
   path: loops, loads/stores, fp, a call. *)
let sample_prog () =
  Gen.program_of_desc
    {
      Gen.prologue = [ (8, 1, 2, 3); (0, 2, 1, 40) ];
      loop_body =
        [ (1, 1, 2, 3); (3, 4, 1, 2); (9, 5, 1, 10); (10, 2, 3, 20);
          (11, 1, 2, 3); (4, 6, 1, 0); (15, 1, 2, 3) ];
      loop_count = 12;
      inner_body = [ (1, 3, 3, 1); (13, 2, 1, 2) ];
      inner_count = 4;
      helper_body = [ (2, 7, 1, 2); (5, 1, 2, 3) ];
      call_helper = true;
    }

(* --- clean runs ---------------------------------------------------------- *)

let test_checker_clean_run () =
  List.iter
    (fun technique ->
      let prog = Technique.prepare technique (sample_prog ()) in
      let p =
        Pipeline.create ~policy:(Technique.policy technique) prog
      in
      let c = Checker.attach p in
      let stats = Pipeline.run ~max_cycles:200_000 p in
      Alcotest.(check bool)
        (Technique.name technique ^ ": committed instructions")
        true
        (stats.Sdiq_cpu.Stats.committed > 0);
      Alcotest.(check int)
        (Technique.name technique ^ ": every cycle audited")
        stats.Sdiq_cpu.Stats.cycles (Checker.cycles_checked c))
    Technique.all

let test_differential_clean_run () =
  let reports = Differential.run (sample_prog ()) in
  List.iter
    (fun (rep : Differential.report) ->
      match rep.Differential.outcome with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "%s diverged: %a"
          (Technique.name rep.Differential.technique)
          (Differential.pp_failure ~prepared:rep.Differential.prepared)
          f)
    reports;
  Alcotest.(check int) "all five techniques ran" 5 (List.length reports)

(* --- sabotage: the checker must catch a broken dispatch limit ----------- *)

(* Model a dispatch stage that pushes the tail past the compiler's
   window: advance [tail] to wrap the whole ring (keeping the span field
   self-consistent, so only the window invariant is broken). The
   installed checker must flag it at the end of the next cycle. The
   baseline binary carries no Iqsets, so the hand-built Software policy
   keeps its window throughout. *)
let test_checker_catches_broken_dispatch_limit () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let policy = Policy.Software { Policy.max_new_range = 4; region_pc = -1 } in
  let p = Pipeline.create ~policy prog in
  ignore (Checker.attach p);
  let caught = ref None in
  (try
     (* Warm the queue up under the honest window first. *)
     let warm = ref 0 in
     while
       !warm < 1_000
       && Sdiq_cpu.Iq.occupancy (Pipeline.Debug.iq p) = 0
     do
       incr warm;
       Pipeline.step_cycle p
     done;
     for _ = 1 to 20 do
       let iq = Pipeline.Debug.iq p in
       if Sdiq_cpu.Iq.occupancy iq > 0 then begin
         iq.Sdiq_cpu.Iq.tail <- iq.Sdiq_cpu.Iq.new_head;
         iq.Sdiq_cpu.Iq.new_span <- iq.Sdiq_cpu.Iq.active_size
       end;
       Pipeline.step_cycle p
     done
   with Checker.Invariant_violation v -> caught := Some v);
  match !caught with
  | Some v ->
    Alcotest.(check string)
      "the dispatch-window invariant names the break" "iq-dispatch-window"
      v.Checker.invariant
  | None -> Alcotest.fail "checker missed the broken dispatch limit"

(* The same break seen from the differential harness: with the window
   wedged at zero nothing can dispatch, the machine stops committing,
   and the committed trace falls short of the oracle's. *)
let test_differential_catches_broken_dispatch_limit () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let _, expected, truncated =
    Differential.oracle_trace ~max_steps:1_000_000 prog
  in
  Alcotest.(check bool) "oracle completes" false truncated;
  Alcotest.(check bool) "oracle produced a trace" true
    (Array.length expected > 0);
  let policy = Policy.Software { Policy.max_new_range = 0; region_pc = -1 } in
  let committed = ref [] in
  let p = Pipeline.create ~policy prog in
  Pipeline.on_commit_sink p (fun d -> committed := d :: !committed);
  let stuck =
    match Pipeline.run ~max_cycles:20_000 p with
    | _ -> false
    | exception Pipeline.Simulation_limit _ -> true
  in
  Alcotest.(check bool) "wedged window deadlocks the machine" true stuck;
  let got = Array.of_list (List.rev !committed) in
  match Differential.diff_traces expected got with
  | Some m ->
    Alcotest.(check bool)
      "divergence is a missing tail, not a wrong instruction" true
      (m.Differential.got = None)
  | None -> Alcotest.fail "differential missed the truncated trace"

(* Direct state tampering: invalidate a live slot behind the queue's
   back, desynchronising the count. *)
let test_checker_catches_tampered_iq () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let p = Pipeline.create prog in
  ignore (Checker.attach p);
  let warm = ref 0 in
  while
    !warm < 1_000 && Sdiq_cpu.Iq.occupancy (Pipeline.Debug.iq p) = 0
  do
    incr warm;
    Pipeline.step_cycle p
  done;
  let iq = Pipeline.Debug.iq p in
  Alcotest.(check bool) "queue warmed up" true (Sdiq_cpu.Iq.occupancy iq > 0);
  Alcotest.(check bool) "head slot is live" true
    (Sdiq_cpu.Iq.slot_valid iq iq.Sdiq_cpu.Iq.head);
  Sdiq_cpu.Iq.Raw.set_valid iq iq.Sdiq_cpu.Iq.head false;
  match Pipeline.step_cycle p with
  | () -> Alcotest.fail "checker missed the tampered queue"
  | exception Checker.Invariant_violation v ->
    Alcotest.(check bool)
      "an IQ structural invariant tripped" true
      (String.length v.Checker.invariant >= 3
      && String.sub v.Checker.invariant 0 3 = "iq-")

(* Desynchronised wakeup bookkeeping: bump the queue's waiting-operand
   count without touching any slot. Broadcasts would then price one
   phantom comparison per tag; the wakeup-state recount must name the
   drift at the end of the very next cycle, before any charge is
   audited. *)
let test_checker_catches_desynced_wakeup_count () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let p = Pipeline.create prog in
  ignore (Checker.attach p);
  let warm = ref 0 in
  while
    !warm < 1_000 && Sdiq_cpu.Iq.occupancy (Pipeline.Debug.iq p) = 0
  do
    incr warm;
    Pipeline.step_cycle p
  done;
  let iq = Pipeline.Debug.iq p in
  iq.Sdiq_cpu.Iq.waiting_ops <- iq.Sdiq_cpu.Iq.waiting_ops + 1;
  match Pipeline.step_cycle p with
  | () -> Alcotest.fail "checker missed the desynchronised waiting count"
  | exception Checker.Invariant_violation v ->
    Alcotest.(check string) "the wakeup-state invariant names the drift"
      "iq-wakeup-state" v.Checker.invariant

(* Sabotaged squash: the recovery path "forgets" to free the episode's
   first wrong-path IQ entry (ROB and rename are still rolled back
   correctly — exactly the partial-recovery bug a hand-written squash
   walk can have). The IQ/ROB-linkage invariant must catch the stale
   live entry at the end of the squash cycle: it points at a ROB line
   that was popped. *)
let test_checker_catches_sabotaged_squash () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let p = Pipeline.create prog in
  ignore (Checker.attach p);
  Pipeline.For_testing.set_sabotage_squash_leak p true;
  match Pipeline.run ~max_cycles:200_000 p with
  | _ -> Alcotest.fail "checker missed the leaked wrong-path IQ entry"
  | exception Checker.Invariant_violation v ->
    Alcotest.(check string) "the linkage invariant names the leak"
      "iq-rob-linkage" v.Checker.invariant

(* --- violation formatting ------------------------------------------------ *)

let test_violation_report_is_structured () =
  let prog = Technique.prepare Technique.Baseline (sample_prog ()) in
  let p = Pipeline.create prog in
  ignore (Checker.attach p);
  let warm = ref 0 in
  while
    !warm < 1_000 && Sdiq_cpu.Iq.occupancy (Pipeline.Debug.iq p) = 0
  do
    incr warm;
    Pipeline.step_cycle p
  done;
  let iq = Pipeline.Debug.iq p in
  Sdiq_cpu.Iq.Raw.set_valid iq iq.Sdiq_cpu.Iq.head false;
  match Pipeline.step_cycle p with
  | () -> Alcotest.fail "expected a violation"
  | exception Checker.Invariant_violation v ->
    let rendered = Fmt.str "%a" Checker.pp_violation v in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "report mentions %S" needle)
          true
          (Test_util.contains ~needle rendered))
      [ "cycle"; "state:"; v.Checker.invariant ]

(* --- qcheck: random programs agree across all techniques ---------------- *)

(* Operations stay raw quads so qcheck's structural shrinker works on
   them; the desc is built inside the property. *)
let op_arb = QCheck.(quad small_nat small_nat small_nat small_nat)

let desc_of ((prologue, (loop_body, lc)), ((inner_body, ic), (helper_body, ch)))
    =
  {
    Gen.prologue;
    loop_body = (if loop_body = [] then [ (1, 1, 2, 3) ] else loop_body);
    loop_count = 1 + (lc mod 20);
    inner_body;
    inner_count = 1 + (ic mod 6);
    helper_body;
    call_helper = ch;
  }

let desc_arb =
  QCheck.(
    pair
      (pair (small_list op_arb) (pair (small_list op_arb) small_nat))
      (pair (pair (small_list op_arb) small_nat) (pair (small_list op_arb) bool)))

let qcheck_differential =
  QCheck.Test.make ~count:25
    ~name:"random programs: oracle and pipeline agree (all techniques)"
    desc_arb
    (fun raw ->
      let desc = desc_of raw in
      let prog = Gen.program_of_desc desc in
      let reports = Differential.run ~max_cycles:500_000 prog in
      match Differential.first_failure reports with
      | None -> true
      | Some rep ->
        QCheck.Test.fail_reportf "%s on %a:@.%a"
          (Technique.name rep.Differential.technique)
          Gen.pp_desc desc Differential.pp_report rep)

(* --- runner integration -------------------------------------------------- *)

let test_runner_checker_factory () =
  let runner =
    Sdiq_harness.Runner.create ~budget:2_000
      ~benches:(Sdiq_workloads.Suite.tiny ())
      ~domains:2 ~checker:Checker.fresh_hook ()
  in
  Sdiq_harness.Runner.run_all runner;
  (* No Invariant_violation escaped the campaign: every (bench x
     technique) pair was audited cycle-by-cycle on worker domains. *)
  List.iter
    (fun name ->
      List.iter
        (fun tech ->
          let stats = Sdiq_harness.Runner.run runner name tech in
          Alcotest.(check bool)
            (name ^ "/" ^ Technique.name tech ^ " progressed")
            true
            (stats.Sdiq_cpu.Stats.committed > 0))
        Technique.all)
    (Sdiq_harness.Runner.bench_names runner)

let suite =
  [
    Alcotest.test_case "checker: clean run, every cycle audited" `Quick
      test_checker_clean_run;
    Alcotest.test_case "differential: clean run, all techniques" `Quick
      test_differential_clean_run;
    Alcotest.test_case "checker catches a broken dispatch limit" `Quick
      test_checker_catches_broken_dispatch_limit;
    Alcotest.test_case "differential catches a broken dispatch limit" `Quick
      test_differential_catches_broken_dispatch_limit;
    Alcotest.test_case "checker catches direct IQ tampering" `Quick
      test_checker_catches_tampered_iq;
    Alcotest.test_case "checker catches a sabotaged squash" `Quick
      test_checker_catches_sabotaged_squash;
    Alcotest.test_case "violation reports are structured" `Quick
      test_violation_report_is_structured;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "runner threads the checker factory" `Quick
      test_runner_checker_factory;
    Alcotest.test_case "checker catches desynced wakeup counts" `Quick
      test_checker_catches_desynced_wakeup_count;
  ]
