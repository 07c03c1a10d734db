(* Second round of analysis tests: per-path loop analysis, annotation
   placement rules (loop headers, re-entry blocks, back-edge bypass),
   value clamping, and the ablation module. *)

open Sdiq_isa
module Procedure = Sdiq_core.Procedure
module Loop_need = Sdiq_core.Loop_need
module Annotate = Sdiq_core.Annotate
module Options = Sdiq_core.Options

let r = Reg.int

let assemble build =
  let b = Asm.create () in
  build b;
  Asm.assemble b ~entry:"main"

let cfg_of prog =
  Sdiq_cfg.Cfg.build prog (Option.get (Prog.find_proc prog "main"))

(* A loop with a rare slow side: the hot path must dominate the verdict. *)
let rare_div_loop () =
  assemble (fun b ->
      let p = Asm.proc b "main" in
      Asm.li p (r 1) 100;
      Asm.label p "loop";
      Asm.load p (r 2) (r 9) 0;
      Asm.load p (r 3) (r 9) 4;
      Asm.mul p (r 4) (r 2) (r 3);
      Asm.add p (r 5) (r 5) (r 4);
      Asm.andi p (r 6) (r 1) 63;
      Asm.bne p (r 6) Reg.zero "no_div";
      Asm.ori p (r 7) (r 2) 1;
      Asm.div p (r 5) (r 5) (r 7);
      Asm.label p "no_div";
      Asm.addi p (r 9) (r 9) 8;
      Asm.addi p (r 1) (r 1) (-1);
      Asm.bne p (r 1) Reg.zero "loop";
      Asm.halt p)

let test_loop_paths_enumerated () =
  let prog = rare_div_loop () in
  let cfg = cfg_of prog in
  let loops = Sdiq_cfg.Loops.find cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let paths = Loop_need.loop_paths cfg (List.hd loops) in
  Alcotest.(check int) "two paths (with and without the div)" 2
    (List.length paths)

let test_hot_path_dominates_loop_need () =
  let prog = rare_div_loop () in
  let cfg = cfg_of prog in
  let regions = Sdiq_cfg.Regions.decompose cfg in
  let loop = List.hd (Sdiq_cfg.Loops.find cfg) in
  let with_paths = Loop_need.analyze cfg regions loop in
  (* The flattened-body analysis alone (II inflated by the div): *)
  let flat =
    Loop_need.analyze_body
      (Loop_need.body_of_region cfg regions (Sdiq_cfg.Regions.Loop loop))
  in
  Alcotest.(check bool) "per-path need >= flattened need" true
    (with_paths.Loop_need.need >= flat.Loop_need.need)

let test_paths_bounded () =
  (* A loop with 8 sequential diamonds has 2^8 paths; the enumeration must
     stop at its bound rather than explode. *)
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 10;
        Asm.label p "loop";
        for k = 0 to 7 do
          let thn = Printf.sprintf "t%d" k and join = Printf.sprintf "j%d" k in
          Asm.andi p (r 2) (r 1) (1 lsl k);
          Asm.beq p (r 2) Reg.zero thn;
          Asm.addi p (r 3) (r 3) 1;
          Asm.jmp p join;
          Asm.label p thn;
          Asm.addi p (r 4) (r 4) 1;
          Asm.label p join;
          Asm.nop p
        done;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let cfg = cfg_of prog in
  let loop = List.hd (Sdiq_cfg.Loops.find cfg) in
  let paths = Loop_need.loop_paths ~max_paths:64 cfg loop in
  Alcotest.(check bool) "bounded" true (List.length paths <= 64);
  Alcotest.(check bool) "non-empty" true (List.length paths >= 1)

(* --- annotation placement --- *)

let nested_loop_with_call () =
  assemble (fun b ->
      let p = Asm.proc b "main" in
      Asm.li p (r 1) 10;
      Asm.label p "outer";
      Asm.li p (r 2) 10;
      Asm.label p "inner";
      Asm.addi p (r 2) (r 2) (-1);
      Asm.bne p (r 2) Reg.zero "inner";
      Asm.call p "work";
      Asm.addi p (r 1) (r 1) (-1);
      Asm.bne p (r 1) Reg.zero "outer";
      Asm.halt p;
      let q = Asm.proc b "work" in
      Asm.addi q (r 3) (r 3) 1;
      Asm.ret q)

let test_loop_reentry_blocks_annotated () =
  let prog = nested_loop_with_call () in
  let anns = Procedure.analyze_program prog in
  let annotated = List.map (fun (a : Procedure.annotation) -> a.addr) anns in
  (* After the inner loop exits (the call block, address 4) and after the
     call returns (address 5), the outer loop's value must be
     re-established. *)
  Alcotest.(check bool) "post-inner block annotated" true
    (List.mem 4 annotated);
  Alcotest.(check bool) "post-call block annotated" true
    (List.mem 5 annotated)

let test_loop_header_annotation_has_span () =
  let prog = nested_loop_with_call () in
  let anns = Procedure.analyze_program prog in
  let with_span =
    List.filter (fun (a : Procedure.annotation) -> a.loop_span <> None) anns
  in
  Alcotest.(check int) "two loops carry spans" 2 (List.length with_span)

let test_back_edges_bypass_loop_noop () =
  let prog = nested_loop_with_call () in
  let annotated, _ = Annotate.apply Annotate.Noop prog in
  (* Count dynamic Iqset executions: with back-edge bypass, the inner
     header's NOOP runs once per outer iteration (10), not once per inner
     iteration (100). *)
  let st = Exec.create annotated in
  let iqsets = ref 0 in
  let rec loop () =
    match Exec.step st with
    | None -> ()
    | Some d ->
      if d.Exec.instr.Instr.op = Opcode.Iqset then incr iqsets;
      loop ()
  in
  loop ();
  Alcotest.(check bool)
    (Printf.sprintf "iqset executions bounded (%d)" !iqsets)
    true
    (!iqsets < 60)

let test_clamp_minimum_two () =
  (* A pure serial chain block must still get two slots (dispatch must
     pipeline with issue, as in Figure 1(d)). *)
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.addi p (r 1) (r 1) 1;
        Asm.addi p (r 1) (r 1) 1;
        Asm.addi p (r 1) (r 1) 1;
        Asm.halt p)
  in
  let anns = Procedure.analyze_program prog in
  List.iter
    (fun (a : Procedure.annotation) ->
      Alcotest.(check bool) "at least 2" true (a.value >= 2))
    anns

let test_improved_summary_exit_pressure () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.call p "muls";
        Asm.halt p;
        let q = Asm.proc b "muls" in
        Asm.mul q (r 2) (r 3) (r 4);
        Asm.mul q (r 5) (r 6) (r 7);
        Asm.ret q)
  in
  let callee = Option.get (Prog.find_proc prog "muls") in
  let s = Procedure.summarize prog callee in
  Alcotest.(check bool) "multiplier pressure recorded" true
    (s.Procedure.exit_pressure Fu.Int_mul >= 2);
  Alcotest.(check bool) "no fp pressure" true
    (s.Procedure.exit_pressure Fu.Fp_alu = 0)

let test_annotation_values_sorted_addresses () =
  let prog = nested_loop_with_call () in
  let anns = Procedure.analyze_program prog in
  let addrs = List.map (fun (a : Procedure.annotation) -> a.addr) anns in
  Alcotest.(check (list int)) "sorted" (List.sort compare addrs) addrs

(* --- ablations module --- *)

let test_ablation_studies_generate () =
  let benches = [ Sdiq_workloads.W_crafty.build ~outer:2_000 () ] in
  let studies =
    [
      Sdiq_harness.Ablations.delivery ~budget:5_000 benches;
      Sdiq_harness.Ablations.slack ~budget:5_000 ~values:[ 0; 8 ] benches;
      Sdiq_harness.Ablations.load_latency ~budget:5_000 ~values:[ 2; 8 ]
        benches;
    ]
  in
  List.iter
    (fun (s : Sdiq_harness.Ablations.study) ->
      Alcotest.(check int)
        (s.Sdiq_harness.Ablations.id ^ " one row")
        1
        (List.length s.Sdiq_harness.Ablations.rows);
      List.iter
        (fun (row : Sdiq_harness.Ablations.row) ->
          List.iter
            (fun (_, v) ->
              Alcotest.(check bool) "finite" true (Float.is_finite v))
            row.Sdiq_harness.Ablations.points)
        s.Sdiq_harness.Ablations.rows)
    studies;
  (* Each point runs its own analysis options: a study that ignored
     them would read the same value at both ends of its sweep. On gap
     the window size moves IPC (crafty's IPC does not move with it). *)
  let gap = [ Sdiq_workloads.W_gap.build () ] in
  let differ (s : Sdiq_harness.Ablations.study) a b =
    let points = (List.hd s.Sdiq_harness.Ablations.rows).points in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s and %s differ" s.id a b)
      true
      (List.assoc a points <> List.assoc b points)
  in
  differ
    (Sdiq_harness.Ablations.slack ~budget:5_000 ~values:[ 0; 8 ] gap)
    "slack 0" "slack 8";
  differ
    (Sdiq_harness.Ablations.load_latency ~budget:5_000 ~values:[ 2; 8 ] gap)
    "load+2" "load+8"

let test_ablation_bank_granularity_monotone () =
  let benches = [ Sdiq_workloads.W_crafty.build ~outer:3_000 () ] in
  let s = Sdiq_harness.Ablations.bank_granularity ~budget:8_000 benches in
  match s.Sdiq_harness.Ablations.rows with
  | [ row ] -> (
    match row.Sdiq_harness.Ablations.points with
    | [ (_, fine); (_, mid); (_, coarse) ] ->
      Alcotest.(check bool) "finer banks gate at least as much" true
        (fine >= mid -. 1. && mid >= coarse -. 1.)
    | _ -> Alcotest.fail "three points expected")
  | _ -> Alcotest.fail "one row expected"

let suite =
  [
    Alcotest.test_case "loop paths enumerated" `Quick
      test_loop_paths_enumerated;
    Alcotest.test_case "hot path dominates loop need" `Quick
      test_hot_path_dominates_loop_need;
    Alcotest.test_case "path enumeration bounded" `Quick test_paths_bounded;
    Alcotest.test_case "loop re-entry blocks annotated" `Quick
      test_loop_reentry_blocks_annotated;
    Alcotest.test_case "loop header has span" `Quick
      test_loop_header_annotation_has_span;
    Alcotest.test_case "back edges bypass loop noop" `Quick
      test_back_edges_bypass_loop_noop;
    Alcotest.test_case "clamp minimum two" `Quick test_clamp_minimum_two;
    Alcotest.test_case "improved summary exit pressure" `Quick
      test_improved_summary_exit_pressure;
    Alcotest.test_case "annotations sorted" `Quick
      test_annotation_values_sorted_addresses;
    Alcotest.test_case "ablation studies generate" `Quick
      test_ablation_studies_generate;
    Alcotest.test_case "bank granularity monotone" `Quick
      test_ablation_bank_granularity_monotone;
  ]
