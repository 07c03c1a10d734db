(* Tests for the workload suite: every benchmark assembles, runs to
   completion functionally, is deterministic, and has the character its
   SPECint namesake is chosen for. *)

open Sdiq_isa
module Suite = Sdiq_workloads.Suite
module Bench = Sdiq_workloads.Bench
module Stats = Sdiq_cpu.Stats

let paper_order =
  [ "gzip"; "vpr"; "gcc"; "mcf"; "crafty"; "parser"; "perlbmk"; "gap";
    "vortex"; "bzip2"; "twolf" ]

let test_suite_complete () =
  Alcotest.(check (list string)) "the paper's eleven benchmarks" paper_order
    (Suite.names ())

let test_all_assemble_and_run_functionally () =
  List.iter
    (fun (b : Bench.t) ->
      let st = Exec.create b.Bench.prog in
      b.Bench.init st;
      let steps = Exec.run ~max_steps:2_000_000 st in
      Alcotest.(check bool)
        (b.Bench.name ^ " terminates")
        true
        (st.Exec.halted && steps < 2_000_000);
      Alcotest.(check bool)
        (b.Bench.name ^ " does work")
        true (steps > 1_000))
    (Suite.tiny ())

let simulate ?(budget = 12_000) (b : Bench.t) =
  Sdiq_cpu.Pipeline.run ~max_insns:budget
    (Sdiq_harness.Technique.build Sdiq_harness.Technique.Baseline b)

let find name = Option.get (Suite.find name)

let test_all_simulate_deterministically () =
  List.iter
    (fun (b : Bench.t) ->
      let s1 = simulate ~budget:5_000 b in
      let s2 = simulate ~budget:5_000 b in
      Alcotest.(check int) (b.Bench.name ^ " same cycles") s1.Stats.cycles
        s2.Stats.cycles;
      Alcotest.(check int)
        (b.Bench.name ^ " same wakeups")
        s1.Stats.iq_wakeups_gated s2.Stats.iq_wakeups_gated)
    (Suite.all ())

let test_mcf_is_memory_bound () =
  let s = simulate (find "mcf") in
  Alcotest.(check bool) "very low IPC" true (Stats.ipc s < 0.6);
  Alcotest.(check bool) "L2 misses dominate" true (s.Stats.l2_misses > 500);
  Alcotest.(check bool) "queue is full of waiters" true
    (Stats.avg_iq_occupancy s > 25.)

let test_crafty_is_ilp_rich () =
  let s = simulate (find "crafty") in
  Alcotest.(check bool) "high IPC" true (Stats.ipc s > 3.5);
  Alcotest.(check bool) "almost no memory traffic" true
    (s.Stats.loads + s.Stats.stores < s.Stats.committed / 10)

let test_vortex_is_call_heavy () =
  let b = find "vortex" in
  let calls =
    Prog.count_matching b.Bench.prog (fun i -> i.Instr.op = Opcode.Call)
  in
  Alcotest.(check bool) "has call sites" true (calls >= 4);
  let s = simulate b in
  (* Returns are frequent: the RAS must be exercised heavily. *)
  Alcotest.(check bool) "branch traffic includes returns" true
    (s.Stats.branches > s.Stats.committed / 20)

let test_gcc_has_complex_cfg () =
  let b = find "gcc" in
  let proc = Option.get (Prog.find_proc b.Bench.prog "main") in
  let cfg = Sdiq_cfg.Cfg.build b.Bench.prog proc in
  Alcotest.(check bool) "many basic blocks" true
    (Sdiq_cfg.Cfg.num_blocks cfg > 20);
  (* The shared tail has several predecessors (the gotos). *)
  let max_preds =
    List.fold_left
      (fun acc id -> max acc (List.length (Sdiq_cfg.Cfg.preds cfg id)))
      0
      (List.init (Sdiq_cfg.Cfg.num_blocks cfg) (fun i -> i))
  in
  Alcotest.(check bool) "a join block with many predecessors" true
    (max_preds >= 4)

let test_gap_pressures_multiplier () =
  let b = find "gap" in
  let muls =
    Prog.count_matching b.Bench.prog (fun i ->
        i.Instr.op = Opcode.Mul || i.Instr.op = Opcode.Div)
  in
  Alcotest.(check bool) "multiplies in the hot loop" true (muls >= 4)

let test_twolf_has_unpredictable_accepts () =
  let s = simulate (find "twolf") in
  Alcotest.(check bool) "meaningful mispredict rate" true
    (Stats.mispredict_rate s > 0.02)

let test_benchmarks_have_stores_and_loads () =
  List.iter
    (fun (b : Bench.t) ->
      if b.Bench.name <> "crafty" then begin
        let s = simulate ~budget:5_000 b in
        Alcotest.(check bool) (b.Bench.name ^ " loads") true
          (s.Stats.loads > 0);
        Alcotest.(check bool) (b.Bench.name ^ " stores") true
          (s.Stats.stores > 0)
      end)
    (Suite.all ())

let test_every_bench_analyzable () =
  List.iter
    (fun (b : Bench.t) ->
      let annotated, anns = Sdiq_core.Annotate.(apply Noop) b.Bench.prog in
      Alcotest.(check bool)
        (b.Bench.name ^ " has annotations")
        true
        (List.length anns > 0);
      (* The annotated binary computes the same result. *)
      let st = Exec.create b.Bench.prog in
      b.Bench.init st;
      ignore (Exec.run ~max_steps:300_000 st);
      let st' = Exec.create annotated in
      b.Bench.init st';
      ignore (Exec.run ~max_steps:400_000 st');
      Alcotest.(check int)
        (b.Bench.name ^ " same output")
        (Exec.peek st 0) (Exec.peek st' 0))
    (Suite.tiny ())

(* --- the shared initial-memory image ------------------------------------ *)

module Technique = Sdiq_harness.Technique
module Pipeline = Sdiq_cpu.Pipeline

(* Machines of one benchmark share its image, never each other's stores:
   stores on one machine, or on its wrong-path shadow, reach neither the
   other machine, nor a machine built afterwards, nor the image. *)
let test_machines_share_image_not_stores () =
  let bench = find "gzip" in
  let a = Technique.build Technique.Baseline bench in
  let b = Technique.build Technique.Noop bench in
  let addr, v =
    List.find (fun (a, _) -> a land 3 = 0) (fst (Exec.memory a.Pipeline.exec))
  in
  let far = 0x7000_0000 in
  Exec.poke a.Pipeline.exec addr (v + 1);
  Exec.poke a.Pipeline.exec far 7;
  Exec.fpoke a.Pipeline.exec far 2.5;
  let shadow = b.Pipeline.wp_exec in
  Exec.fork shadow;
  Exec.poke shadow addr (v + 2);
  Exec.poke shadow (far + 4) 9;
  Alcotest.(check int) "a reads its store" (v + 1)
    (Exec.peek a.Pipeline.exec addr);
  Alcotest.(check int) "b's shadow reads its store" (v + 2)
    (Exec.peek shadow addr);
  Alcotest.(check int) "b's shadow reads through to b" 0
    (Exec.peek shadow far);
  let pristine name (st : Exec.state) =
    Alcotest.(check int) (name ^ ": image word") v (Exec.peek st addr);
    Alcotest.(check int) (name ^ ": unwritten word") 0 (Exec.peek st far);
    Alcotest.(check int) (name ^ ": unwritten word 2") 0
      (Exec.peek st (far + 4));
    Alcotest.(check (float 0.)) (name ^ ": unwritten fp word") 0.
      (Exec.fpeek st far)
  in
  pristine "b" b.Pipeline.exec;
  let c = Technique.build Technique.Improved bench in
  pristine "a third machine" c.Pipeline.exec;
  let st = Exec.create bench.Bench.prog in
  bench.Bench.init st;
  pristine "the image" st;
  Alcotest.(check bool) "b and a fresh load read the same memory" true
    (Exec.memory b.Pipeline.exec = Exec.memory st)

(* The first [init] of a benchmark, on two domains at once: both load
   one image, and it holds what the initialiser writes on a plain
   state. *)
let test_first_init_on_two_domains () =
  let raw st =
    Sdiq_workloads.Gen.fill_random (Sdiq_util.Rng.create 7) st ~base:0x1000
      ~len:50_000 ~max:1000;
    Exec.poke st 0x1001 5;
    Exec.fpoke st 0x2000 1.5
  in
  let bench =
    Bench.make ~name:"race" ~description:"two first inits"
      ~build:(fun b -> Asm.halt (Asm.proc b "main"))
      ~init:raw
  in
  let ready = Atomic.make 0 in
  let first_init () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let st = Exec.create bench.Bench.prog in
    bench.Bench.init st;
    Exec.memory st
  in
  let d1 = Domain.spawn first_init and d2 = Domain.spawn first_init in
  let m1 = Domain.join d1 and m2 = Domain.join d2 in
  let expected =
    let st = Exec.create bench.Bench.prog in
    raw st;
    let ints, floats = Exec.memory st in
    (List.filter (fun (_, v) -> v <> 0) ints, floats)
  in
  Alcotest.(check bool) "both domains see equal memory" true (m1 = m2);
  Alcotest.(check bool) "the initialiser's memory" true (m1 = expected)

(* Building a benchmark's image (its first [init]) allocates at most
   three times the image's size in the major heap: the initialiser's
   stores and the frozen copy, with no table of the whole initial memory
   growing by doubling in between. mcf has the largest image. *)
let test_image_build_is_compact () =
  let bench = find "mcf" in
  let st = Exec.create bench.Bench.prog in
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  Gc.minor ();
  let w0 = major_words () in
  bench.Bench.init st;
  let allocated = major_words () -. w0 in
  let image = float_of_int (Obj.reachable_words (Obj.repr st.Exec.image)) in
  if allocated > 3. *. image then
    Alcotest.failf
      "building mcf's image allocated %.0f major-heap words (> 3 x %.0f)"
      allocated image

let suite =
  [
    Alcotest.test_case "suite matches the paper" `Quick test_suite_complete;
    Alcotest.test_case "all run functionally" `Quick
      test_all_assemble_and_run_functionally;
    Alcotest.test_case "all simulate deterministically" `Slow
      test_all_simulate_deterministically;
    Alcotest.test_case "mcf memory-bound" `Quick test_mcf_is_memory_bound;
    Alcotest.test_case "crafty ILP-rich" `Quick test_crafty_is_ilp_rich;
    Alcotest.test_case "vortex call-heavy" `Quick test_vortex_is_call_heavy;
    Alcotest.test_case "gcc complex CFG" `Quick test_gcc_has_complex_cfg;
    Alcotest.test_case "gap multiplier pressure" `Quick
      test_gap_pressures_multiplier;
    Alcotest.test_case "twolf unpredictable accepts" `Quick
      test_twolf_has_unpredictable_accepts;
    Alcotest.test_case "benches touch memory" `Slow
      test_benchmarks_have_stores_and_loads;
    Alcotest.test_case "all analyzable, semantics preserved" `Quick
      test_every_bench_analyzable;
    Alcotest.test_case "machines share the image, not stores" `Quick
      test_machines_share_image_not_stores;
    Alcotest.test_case "image build is compact" `Quick
      test_image_build_is_compact;
    Alcotest.test_case "first init on two domains" `Quick
      test_first_init_on_two_domains;
  ]
