(* Tests for lib/analysis: the dataflow engine, liveness and summaries,
   the workload lints, the annotation-soundness audit (including a
   deliberately weakened annotation, which must be rejected with the
   violating path), delivery-integrity tampering, and register
   pressure. *)

open Sdiq_isa
module Cfg = Sdiq_cfg.Cfg
module Annotate = Sdiq_core.Annotate
module Procedure = Sdiq_core.Procedure
module Dataflow = Sdiq_analysis.Dataflow
module Regset = Sdiq_analysis.Regset
module Liveness = Sdiq_analysis.Liveness
module Summary = Sdiq_analysis.Summary
module Lint = Sdiq_analysis.Lint
module Soundness = Sdiq_analysis.Soundness
module Pressure = Sdiq_analysis.Pressure
module Finding = Sdiq_analysis.Finding
module Driver = Sdiq_analysis.Driver
module Gen = Sdiq_workloads.Gen
module Rng = Sdiq_util.Rng

let r = Reg.int

let build_prog build =
  let b = Asm.create () in
  build b;
  Asm.assemble b ~entry:"main"

let build_cfg build =
  let prog = build_prog build in
  let proc = Option.get (Prog.find_proc prog "main") in
  (prog, Cfg.build prog proc)

(* Same diamond as suite_cfg: entry(0) -> then(1)/else(2) -> join(3). *)
let diamond b =
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 1;
  Asm.beq p (r 1) Reg.zero "else_";
  Asm.addi p (r 2) (r 2) 1;
  Asm.jmp p "join";
  Asm.label p "else_";
  Asm.addi p (r 2) (r 2) 2;
  Asm.label p "join";
  Asm.halt p

(* --- the engine ---------------------------------------------------------- *)

let must_defined_spec cfg =
  {
    Dataflow.name = "test/must-defined";
    direction = Dataflow.Forward;
    boundary = Regset.empty;
    init = Regset.full;
    join = Regset.inter;
    equal = Regset.equal;
    transfer =
      (fun b defined ->
        List.fold_left
          (fun acc i ->
            match Instr.dest i with
            | Some d -> Regset.add d acc
            | None -> acc)
          defined
          (Cfg.instrs cfg cfg.Cfg.blocks.(b)));
  }

let test_forward_must_defined_diamond () =
  let _, cfg = build_cfg diamond in
  let sol = Dataflow.run cfg (must_defined_spec cfg) in
  (* Both branches define r2, so the join's entry keeps it under the
     intersection; r3 is defined nowhere. *)
  Alcotest.(check bool) "r1 defined at join" true
    (Regset.mem (r 1) sol.Dataflow.entry.(3));
  Alcotest.(check bool) "r2 defined at join" true
    (Regset.mem (r 2) sol.Dataflow.entry.(3));
  Alcotest.(check bool) "r3 not defined at join" false
    (Regset.mem (r 3) sol.Dataflow.entry.(3));
  Alcotest.(check bool) "nothing defined entering main" true
    (Regset.is_empty sol.Dataflow.entry.(0))

let test_backward_liveness_diamond () =
  let _, cfg = build_cfg diamond in
  let live = Liveness.compute ~exit_boundary:Regset.empty cfg in
  (* Both branch blocks read r2 before writing it, and nothing upstream
     defines it: it is live into the procedure. r1 is produced by the
     first li before its only read. *)
  Alcotest.(check bool) "r2 live at entry" true
    (Regset.mem (r 2) live.Liveness.live_in.(0));
  Alcotest.(check bool) "r1 not live at entry" false
    (Regset.mem (r 1) live.Liveness.live_in.(0))

let looping b =
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 10;
  Asm.label p "loop";
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.halt p

let test_divergence_guard () =
  (* An unbounded-height "lattice" only spins when a cycle feeds the
     growing fact back into itself. *)
  let _, cfg = build_cfg looping in
  let bad =
    {
      Dataflow.name = "test/unbounded";
      direction = Dataflow.Forward;
      boundary = 0;
      init = 0;
      join = max;
      equal = Int.equal;
      transfer = (fun _ n -> n + 1);
    }
  in
  match Dataflow.run ~max_steps:100 cfg bad with
  | _ -> Alcotest.fail "non-monotone analysis must raise Diverged"
  | exception Dataflow.Diverged (name, steps) ->
    Alcotest.(check string) "diverging analysis named" "test/unbounded" name;
    Alcotest.(check bool) "budget honoured" true (steps >= 100)

let test_fixpoint_on_loop () =
  let _, cfg = build_cfg looping in
  let sol = Dataflow.run cfg (must_defined_spec cfg) in
  Alcotest.(check bool) "r1 defined in loop" true
    (Regset.mem (r 1) sol.Dataflow.entry.(1));
  Alcotest.(check bool) "took steps" true (sol.Dataflow.steps > 0)

(* --- summaries ----------------------------------------------------------- *)

let caller_callee b =
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 7;
  Asm.call p "helper";
  Asm.add p (r 3) (r 2) (r 2);
  Asm.halt p;
  let q = Asm.proc b "helper" in
  Asm.add q (r 2) (r 1) (r 1);
  Asm.ret q

let test_summary_uses_defs () =
  let prog = build_prog caller_callee in
  let table = Summary.of_program prog in
  let helper = Option.get (Prog.find_proc prog "helper") in
  let s = Summary.at table helper.Prog.entry in
  Alcotest.(check bool) "helper uses exactly r1" true
    (Regset.equal s.Summary.uses (Regset.of_list [ r 1 ]));
  Alcotest.(check bool) "helper must-defines r2" true
    (Regset.mem (r 2) s.Summary.defs);
  Alcotest.(check bool) "helper does not define r3" false
    (Regset.mem (r 3) s.Summary.defs)

let test_summary_transitive_through_call () =
  (* outer calls helper; outer's own code never reads r1, but the
     summary must surface helper's read of it. *)
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 1;
        Asm.call p "outer";
        Asm.halt p;
        let o = Asm.proc b "outer" in
        Asm.call o "helper";
        Asm.ret o;
        let q = Asm.proc b "helper" in
        Asm.add q (r 2) (r 1) (r 1);
        Asm.ret q)
  in
  let table = Summary.of_program prog in
  let outer = Option.get (Prog.find_proc prog "outer") in
  let s = Summary.at table outer.Prog.entry in
  Alcotest.(check bool) "outer transitively uses r1" true
    (Regset.mem (r 1) s.Summary.uses);
  Alcotest.(check bool) "outer transitively defines r2" true
    (Regset.mem (r 2) s.Summary.defs)

let test_summary_recursion_terminates () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 4;
        Asm.call p "rec_";
        Asm.halt p;
        let q = Asm.proc b "rec_" in
        Asm.addi q (r 1) (r 1) (-1);
        Asm.beq q (r 1) Reg.zero "done";
        Asm.call q "rec_";
        Asm.label q "done";
        Asm.ret q)
  in
  let table = Summary.of_program prog in
  let rec_ = Option.get (Prog.find_proc prog "rec_") in
  let s = Summary.at table rec_.Prog.entry in
  Alcotest.(check bool) "recursive proc uses r1" true
    (Regset.mem (r 1) s.Summary.uses);
  Alcotest.(check bool) "recursive proc defines r1" true
    (Regset.mem (r 1) s.Summary.defs)

(* --- lints --------------------------------------------------------------- *)

let findings_with ~pass fs =
  List.filter (fun (f : Finding.t) -> f.Finding.pass = pass) fs

let test_lint_use_before_def () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.add p (r 2) (r 1) (r 1);
        Asm.halt p)
  in
  let fs = Lint.check_program prog in
  Alcotest.(check bool) "r1 flagged" true
    (findings_with ~pass:"use-before-def" fs <> [])

let test_lint_undef_base () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.load p (r 2) (r 1) 0;
        Asm.halt p)
  in
  let fs = Lint.check_program prog in
  Alcotest.(check bool) "undefined base register flagged" true
    (findings_with ~pass:"undef-base" fs <> [])

let test_lint_call_site_obligation () =
  (* helper reads r1; main never defines it. Only the summary-aware
     lint can see the obligation cross the call. *)
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.call p "helper";
        Asm.halt p;
        let q = Asm.proc b "helper" in
        Asm.add q (r 2) (r 1) (r 1);
        Asm.ret q)
  in
  let proc = Option.get (Prog.find_proc prog "main") in
  let cfg = Cfg.build prog proc in
  let summaries = Summary.of_program prog in
  let with_summaries = Lint.use_before_def ~summaries prog proc cfg in
  let without = Lint.use_before_def prog proc cfg in
  Alcotest.(check bool) "callee's read of r1 flagged at the call" true
    (findings_with ~pass:"use-before-def" with_summaries <> []);
  Alcotest.(check bool) "opaque calls stay silent" true
    (findings_with ~pass:"use-before-def" without = [])

let test_lint_dead_write () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 2) 5;
        Asm.halt p)
  in
  let fs = Lint.check_program prog in
  Alcotest.(check bool) "write before halt is dead" true
    (findings_with ~pass:"dead-write" fs <> [])

let test_lint_unreachable () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.jmp p "end_";
        Asm.addi p (r 1) (r 1) 1;
        Asm.label p "end_";
        Asm.halt p)
  in
  let fs = Lint.check_program prog in
  Alcotest.(check bool) "skipped block flagged" true
    (findings_with ~pass:"unreachable" fs <> [])

let test_lint_clean_program () =
  let prog =
    build_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 3;
        Asm.li p (r 10) 64;
        Asm.add p (r 2) (r 1) (r 1);
        Asm.store p (r 2) (r 10) 0;
        Asm.halt p)
  in
  let fs = Lint.check_program prog in
  Alcotest.(check int) "no errors" 0 (Finding.errors fs);
  Alcotest.(check int) "no warnings" 0 (Finding.warnings fs)

(* --- soundness ----------------------------------------------------------- *)

let region_rich () =
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

let test_soundness_accepts_all_modes () =
  let prog = region_rich () in
  List.iter
    (fun (m : Driver.mode) ->
      let _, anns = Annotate.apply ~opts:m.Driver.opts m.Driver.delivery prog in
      let fs = Soundness.audit ~opts:m.Driver.opts prog anns in
      Alcotest.(check int)
        (m.Driver.name ^ ": annotations sound")
        0 (Finding.errors fs))
    Driver.modes

let test_soundness_rejects_weakened () =
  let prog = region_rich () in
  let _, anns = Annotate.apply Annotate.Tagged prog in
  let weak =
    List.map
      (fun (a : Procedure.annotation) ->
        { a with Procedure.value = a.Procedure.value - 1 })
      anns
  in
  let fs = Soundness.audit prog weak in
  let errs =
    List.filter (fun (f : Finding.t) -> f.Finding.severity = Finding.Error) fs
  in
  Alcotest.(check bool) "weakened annotations rejected" true (errs <> []);
  Alcotest.(check bool) "violating path reported" true
    (List.exists (fun (f : Finding.t) -> f.Finding.blocks <> []) errs)

let test_soundness_rejects_missing () =
  let prog = region_rich () in
  let _, anns = Annotate.apply Annotate.Tagged prog in
  Alcotest.(check bool) "program has annotations" true (anns <> []);
  let fs = Soundness.audit prog (List.tl anns) in
  Alcotest.(check bool) "missing annotation rejected" true
    (Finding.errors fs > 0)

(* --- delivery integrity -------------------------------------------------- *)

let test_delivery_catches_corrupt_iqset () =
  let prog = region_rich () in
  let annotated, anns = Annotate.apply Annotate.Noop prog in
  let clean = Lint.delivery ~mode:Annotate.Noop ~original:prog ~annotated anns in
  Alcotest.(check int) "clean delivery accepted" 0 (Finding.errors clean);
  let j =
    Option.get
      (Array.to_seqi annotated.Prog.code
      |> Seq.find_map (fun (j, (i : Instr.t)) ->
             if i.Instr.op = Opcode.Iqset then Some j else None))
  in
  let i = annotated.Prog.code.(j) in
  annotated.Prog.code.(j) <- { i with Instr.imm = i.Instr.imm + 1 };
  let fs = Lint.delivery ~mode:Annotate.Noop ~original:prog ~annotated anns in
  Alcotest.(check bool) "corrupted Iqset value caught" true
    (Finding.errors fs > 0)

let test_delivery_catches_stripped_tag () =
  let prog = region_rich () in
  let annotated, anns = Annotate.apply Annotate.Tagged prog in
  let a = (List.hd anns).Procedure.addr in
  let i = annotated.Prog.code.(a) in
  annotated.Prog.code.(a) <- { i with Instr.tag = None };
  let fs =
    Lint.delivery ~mode:Annotate.Tagged ~original:prog ~annotated anns
  in
  Alcotest.(check bool) "stripped tag caught" true (Finding.errors fs > 0)

(* --- register pressure --------------------------------------------------- *)

let test_pressure_exact_peak () =
  let prog, cfg =
    build_cfg (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 1;
        Asm.li p (r 2) 2;
        Asm.li p (r 3) 3;
        Asm.add p (r 4) (r 1) (r 2);
        Asm.add p (r 5) (r 4) (r 3);
        Asm.halt p)
  in
  let proc = Option.get (Prog.find_proc prog "main") in
  let rep =
    Pressure.report_proc ~exit_boundary:Regset.empty prog proc cfg
  in
  (* r1, r2, r3 are simultaneously live between the last li and the
     first add; nothing wider ever is. *)
  Alcotest.(check int) "peak of 3 int" 3 rep.Pressure.max_int_live;
  Alcotest.(check int) "no fp pressure" 0 rep.Pressure.max_fp_live

let test_pressure_audit_proves_margin () =
  let reports, fs = Pressure.audit (region_rich ()) in
  Alcotest.(check bool) "reports produced" true (reports <> []);
  Alcotest.(check int) "no deadlock possible" 0 (Finding.errors fs);
  Alcotest.(check bool) "peak below the architectural ceiling" true
    (List.for_all
       (fun (rp : Pressure.report) ->
         rp.Pressure.max_int_live < Reg.num_int)
       reports)

let test_pressure_tiny_rf_fails () =
  let _, fs = Pressure.audit ~rf_size:2 (region_rich ()) in
  Alcotest.(check bool) "2 physical registers must deadlock" true
    (Finding.errors fs > 0)

(* --- the interval fixpoint: reuse, cost, shared trip counts -------------- *)

module Interval = Sdiq_analysis.Interval
module Tighten = Sdiq_analysis.Tighten
module Tripcount = Sdiq_analysis.Tripcount

let analysable (prog : Prog.t) =
  List.filter
    (fun (p : Prog.proc) -> (not p.Prog.is_library) && p.Prog.len > 0)
    prog.Prog.procs

(* The suite plus a handful of generated programs, for whole-program
   checks that should hold everywhere. *)
let corpus () =
  List.map (fun (b : Sdiq_workloads.Bench.t) -> b.Sdiq_workloads.Bench.prog)
    (Sdiq_workloads.Suite.all ())
  @ List.init 40 (fun seed -> Gen.random_program (Rng.create seed))

let same_env name (a : Interval.env) (b : Interval.env) =
  for d = 0 to Reg.count - 1 do
    let r = Reg.of_dense d in
    if not (Interval.equal (Interval.lookup a r) (Interval.lookup b r)) then
      Alcotest.failf "%s: %s is %a, fresh analysis says %a" name
        (Reg.to_string r) Interval.pp (Interval.lookup a r) Interval.pp
        (Interval.lookup b r)
  done

(* [solve] hands back the round-robin's last fixpoints instead of
   re-running them; they must be exactly what a fresh analysis under
   the final summaries computes. *)
let test_solve_reuses_final_fixpoints () =
  List.iter
    (fun prog ->
      let solved = Interval.solve prog in
      List.iter
        (fun (p : Prog.proc) ->
          let _, sol = Hashtbl.find solved.Interval.solutions p.Prog.entry in
          let fresh =
            Interval.analyze ~summaries:solved.Interval.summaries prog p
              (Cfg.build prog p)
          in
          Array.iteri
            (fun b e ->
              same_env (Fmt.str "%s B%d entry" p.Prog.name b) e
                fresh.Interval.entry.(b);
              same_env (Fmt.str "%s B%d exit" p.Prog.name b)
                sol.Interval.exit.(b) fresh.Interval.exit.(b))
            sol.Interval.entry)
        (analysable prog))
    (corpus ())

(* Allocation-light: environments are allocated per block, once per
   analysis, never per visit or per instruction. The bound covers two
   environments per block plus the per-procedure setup (block code
   arrays, thresholds, visit order); a transfer that copies the
   environment per instruction exceeds it on every procedure with a
   loop. *)
let test_interval_fixpoint_allocation_light () =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun prog ->
      List.iter
        (fun (p : Prog.proc) ->
          let cfg = Cfg.build prog p in
          let nb = Cfg.num_blocks cfg in
          (* An empty minor heap keeps a collection out of the window:
             the counters jump by a whole minor heap across one. *)
          Gc.minor ();
          let w0 = words () in
          let sol = Interval.analyze prog p cfg in
          let used = words () -. w0 in
          ignore (Sys.opaque_identity sol : Interval.solution);
          let env_words = (2 * Reg.count) + 1 in
          let bound =
            (((2 * nb) + 4) * env_words) + (32 * p.Prog.len) + (64 * nb)
          in
          if used > float_of_int bound then
            Alcotest.failf
              "%s: %d blocks, %d instructions allocated %.0f words (> %d)"
              p.Prog.name nb p.Prog.len used bound)
        (analysable prog))
    (corpus ())

(* The tightener and its audit read the table they are handed, so one
   table per audit means one interval analysis per program. *)
let test_tighten_shares_one_table () =
  List.iter
    (fun prog ->
      let table = Tripcount.of_program prog in
      let asked = ref 0 in
      let tripcounts proc =
        incr asked;
        table proc
      in
      let _, anns = Tighten.apply ~tripcounts Annotate.Tagged prog in
      let findings = Tighten.audit ~tripcounts prog anns in
      if !asked = 0 then Alcotest.fail "the shared table was never read";
      let fresh = Tripcount.of_program prog in
      let _, own = Tighten.apply ~tripcounts:fresh Annotate.Tagged prog in
      Alcotest.(check bool) "same annotations as a fresh table" true
        (anns = own);
      Alcotest.(check int) "same audit as a fresh table"
        (List.length (Tighten.audit ~tripcounts:fresh prog own))
        (List.length findings);
      List.iter
        (fun (p : Prog.proc) ->
          Alcotest.(check bool) "memoised per procedure" true
            (table p == table p))
        prog.Prog.procs)
    (corpus ())

(* --- the property: generated programs always audit clean ----------------- *)

let qcheck_generated_programs_audit_clean =
  QCheck.Test.make ~count:200
    ~name:"random programs: sound annotations, intact delivery, no lint \
           errors under every mode"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = Gen.random_program (Rng.create seed) in
      let fs = Driver.audit_all prog in
      if Finding.errors fs > 0 then
        QCheck.Test.fail_reportf "seed %d: %a" seed Finding.pp
          (List.hd (List.sort Finding.compare fs))
      else true)

(* A waiver address is canonical decimal: each spelling below is an
   integer to [int_of_string], and each is rejected with its line
   number. *)
let test_waiver_rejects_non_canonical_address () =
  let module Waiver = Sdiq_analysis.Waiver in
  (match Waiver.parse "noop/soundness * 31 acknowledged" with
  | Ok [ w ] ->
    Alcotest.(check (option int)) "31 accepted" (Some 31) w.Waiver.addr
  | _ -> Alcotest.fail "31 should parse");
  List.iter
    (fun addr ->
      match
        Waiver.parse
          (Printf.sprintf "# header\nnoop/soundness * %s acknowledged" addr)
      with
      | Ok _ -> Alcotest.failf "%S accepted" addr
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S rejected on line 2: %s" addr e)
          true
          (String.starts_with ~prefix:"line 2:" e))
    [ "0x1f"; "1_0"; "+31"; "031" ]

let suite =
  [
    Alcotest.test_case "forward must-defined on diamond" `Quick
      test_forward_must_defined_diamond;
    Alcotest.test_case "backward liveness on diamond" `Quick
      test_backward_liveness_diamond;
    Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
    Alcotest.test_case "fixpoint on loop" `Quick test_fixpoint_on_loop;
    Alcotest.test_case "summary uses/defs" `Quick test_summary_uses_defs;
    Alcotest.test_case "summary transitive through call" `Quick
      test_summary_transitive_through_call;
    Alcotest.test_case "summary recursion terminates" `Quick
      test_summary_recursion_terminates;
    Alcotest.test_case "lint: use before def" `Quick test_lint_use_before_def;
    Alcotest.test_case "lint: undefined base" `Quick test_lint_undef_base;
    Alcotest.test_case "lint: call-site obligation" `Quick
      test_lint_call_site_obligation;
    Alcotest.test_case "lint: dead write" `Quick test_lint_dead_write;
    Alcotest.test_case "lint: unreachable" `Quick test_lint_unreachable;
    Alcotest.test_case "lint: clean program" `Quick test_lint_clean_program;
    Alcotest.test_case "soundness accepts all modes" `Quick
      test_soundness_accepts_all_modes;
    Alcotest.test_case "soundness rejects weakened" `Quick
      test_soundness_rejects_weakened;
    Alcotest.test_case "soundness rejects missing" `Quick
      test_soundness_rejects_missing;
    Alcotest.test_case "delivery: corrupt Iqset" `Quick
      test_delivery_catches_corrupt_iqset;
    Alcotest.test_case "delivery: stripped tag" `Quick
      test_delivery_catches_stripped_tag;
    Alcotest.test_case "pressure: exact peak" `Quick test_pressure_exact_peak;
    Alcotest.test_case "pressure: audit proves margin" `Quick
      test_pressure_audit_proves_margin;
    Alcotest.test_case "pressure: tiny rf fails" `Quick
      test_pressure_tiny_rf_fails;
    Alcotest.test_case "interval: solve reuses final fixpoints" `Quick
      test_solve_reuses_final_fixpoints;
    Alcotest.test_case "interval: fixpoint allocation-light" `Quick
      test_interval_fixpoint_allocation_light;
    Alcotest.test_case "tighten: apply and audit share one table" `Quick
      test_tighten_shares_one_table;
    Alcotest.test_case "waiver: non-canonical address" `Quick
      test_waiver_rejects_non_canonical_address;
    QCheck_alcotest.to_alcotest qcheck_generated_programs_audit_clean;
  ]
