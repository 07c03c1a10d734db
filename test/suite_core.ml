(* Tests for the paper's compiler analysis: pseudo issue queue (Fig. 3),
   loop requirements (Fig. 4), procedure orchestration (Fig. 5) and
   annotation delivery. *)

open Sdiq_isa
module Pseudo_iq = Sdiq_core.Pseudo_iq
module Loop_need = Sdiq_core.Loop_need
module Procedure = Sdiq_core.Procedure
module Annotate = Sdiq_core.Annotate
module Options = Sdiq_core.Options

let r = Reg.int

(* Figure 3: six instructions a..f where
     iteration 0: a issues            -> 1 entry
     iteration 1: b, d issue          -> 3 entries (b,c,d)
     iteration 2: c, e, f issue       -> 4 entries (c,d,e,f)
   Dependences: b<-a, d<-a, c<-b, e<-d, f<-d; all 1-cycle. *)
let fig3_block () =
  [|
    Instr.make ~dst:(r 1) ~src1:(r 10) ~imm:1 Opcode.Addi; (* a *)
    Instr.make ~dst:(r 2) ~src1:(r 1) ~imm:1 Opcode.Addi;  (* b <- a *)
    Instr.make ~dst:(r 3) ~src1:(r 2) ~imm:1 Opcode.Addi;  (* c <- b *)
    Instr.make ~dst:(r 4) ~src1:(r 1) ~imm:1 Opcode.Addi;  (* d <- a *)
    Instr.make ~dst:(r 5) ~src1:(r 4) ~imm:1 Opcode.Addi;  (* e <- d *)
    Instr.make ~dst:(r 6) ~src1:(r 4) ~imm:1 Opcode.Addi;  (* f <- d *)
  |]

let test_fig3_need () =
  let res = Pseudo_iq.analyze (fig3_block ()) in
  Alcotest.(check int) "4 entries, as in the paper" 4 res.Pseudo_iq.need

let test_fig3_issue_cycles () =
  let res = Pseudo_iq.analyze (fig3_block ()) in
  Alcotest.(check (array int)) "issue schedule"
    [| 0; 1; 2; 1; 2; 2 |]
    res.Pseudo_iq.issue_cycle

(* Figure 1: limiting the queue to 2 entries does not slow this block, and
   the analysis finds that 2 entries suffice for the pairs to issue
   together. Dependences: c<-a, d<-b, e<-c,d, f<-b,d. *)
let fig1_block () =
  [|
    Instr.make ~dst:(r 1) ~src1:(r 1) ~imm:1 Opcode.Addi;
    Instr.make ~dst:(r 2) ~src1:(r 2) ~imm:2 Opcode.Addi;
    Instr.make ~dst:(r 3) ~src1:(r 1) ~imm:5 Opcode.Shli;
    Instr.make ~dst:(r 4) ~src1:(r 2) ~imm:5 Opcode.Shli;
    Instr.make ~dst:(r 5) ~src1:(r 3) ~src2:(r 4) Opcode.Add;
    Instr.make ~dst:(r 6) ~src1:(r 2) ~src2:(r 4) Opcode.Add;
  |]

let test_fig1_need_is_two () =
  let res = Pseudo_iq.analyze (fig1_block ()) in
  Alcotest.(check int) "2 entries" 2 res.Pseudo_iq.need

let test_independent_block_width_limited () =
  (* 12 independent ALU ops: with width 8 and 6 ALUs, 6 issue per cycle;
     oldest unissued is position 6 on cycle 1 while youngest issuing is
     position 11: the block needs 6 entries. *)
  let block =
    Array.init 12 (fun i -> Instr.make ~dst:(r (i + 1)) ~imm:i Opcode.Li)
  in
  let res = Pseudo_iq.analyze block in
  Alcotest.(check int) "need limited by ALUs" 6 res.Pseudo_iq.need

let test_serial_chain_needs_one () =
  let block =
    Array.init 8 (fun i ->
        Instr.make ~dst:(r 1) ~src1:(r 1) ~imm:i Opcode.Addi)
  in
  let res = Pseudo_iq.analyze block in
  Alcotest.(check int) "chain needs a single entry" 1 res.Pseudo_iq.need

let test_load_latency_assumed_hit () =
  (* load feeds an add: with the L1 hit assumption (1 + 2 cycles) the
     consumer issues 3 cycles after the load. *)
  let block =
    [|
      Instr.make ~dst:(r 1) ~src1:(r 2) ~imm:0 Opcode.Load;
      Instr.make ~dst:(r 3) ~src1:(r 1) ~imm:1 Opcode.Addi;
    |]
  in
  let res = Pseudo_iq.analyze block in
  Alcotest.(check int) "consumer waits for hit" 3
    res.Pseudo_iq.issue_cycle.(1)

let test_busy_units_delay_issue () =
  (* Two multiplies with all three multipliers busy in the first cycles
     (interprocedural contention): issue is pushed past the busy window. *)
  let block =
    [|
      Instr.make ~dst:(r 1) ~src1:(r 2) ~src2:(r 3) Opcode.Mul;
      Instr.make ~dst:(r 4) ~src1:(r 5) ~src2:(r 6) Opcode.Mul;
    |]
  in
  let busy = function Fu.Int_mul -> 3 | _ -> 0 in
  let free = Pseudo_iq.analyze block in
  let contended = Pseudo_iq.analyze ~busy ~busy_cycles:2 block in
  Alcotest.(check int) "uncontended issues at 0" 0
    free.Pseudo_iq.issue_cycle.(0);
  Alcotest.(check int) "contended issues after busy window" 2
    contended.Pseudo_iq.issue_cycle.(0)

let test_unpipelined_div_serialises () =
  (* Three divides on three multipliers: fine. Four divides: the fourth
     waits for a unit to free (12 cycles). *)
  let block =
    Array.init 4 (fun i ->
        Instr.make ~dst:(r (i + 1)) ~src1:(r 10) ~src2:(r 11) Opcode.Div)
  in
  let res = Pseudo_iq.analyze block in
  Alcotest.(check int) "fourth div waits for a unit" 12
    res.Pseudo_iq.issue_cycle.(3)

(* --- procedure-level analysis --- *)

let loop_program () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 100;
  Asm.li p (r 2) 0;
  Asm.label p "loop";
  Asm.add p (r 2) (r 2) (r 1);
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.store p Reg.zero (r 2) 0;
  Asm.halt p;
  Asm.assemble b ~entry:"main"

let test_procedure_annotations_cover_blocks () =
  let prog = loop_program () in
  let anns = Procedure.analyze_program prog in
  Alcotest.(check bool) "has annotations" true (List.length anns >= 2);
  List.iter
    (fun (a : Procedure.annotation) ->
      Alcotest.(check bool) "value in range" true
        (a.Procedure.value >= 1 && a.Procedure.value <= 80))
    anns;
  (* The loop header (address 2) must be annotated. *)
  Alcotest.(check bool) "loop header annotated" true
    (List.exists (fun (a : Procedure.annotation) -> a.Procedure.addr = 2) anns)

let test_annotation_addresses_unique () =
  let prog = loop_program () in
  let anns = Procedure.analyze_program prog in
  let addrs = List.map (fun (a : Procedure.annotation) -> a.Procedure.addr) anns in
  Alcotest.(check int) "unique addresses" (List.length addrs)
    (List.length (List.sort_uniq compare addrs))

let test_library_call_forces_max () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 1;
  Asm.call p "libfn";
  Asm.halt p;
  let q = Asm.proc ~library:true b "libfn" in
  Asm.ret q;
  let prog = Asm.assemble b ~entry:"main" in
  let anns = Procedure.analyze_program prog in
  (* The call at address 1 must carry the maximum queue size. *)
  let at_call =
    List.find_opt (fun (a : Procedure.annotation) -> a.Procedure.addr = 1) anns
  in
  match at_call with
  | Some a -> Alcotest.(check int) "max size before library call" 80
                a.Procedure.value
  | None -> Alcotest.fail "no annotation at library call"

let test_library_proc_not_analyzed () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.halt p;
  let q = Asm.proc ~library:true b "libfn" in
  Asm.nop q;
  Asm.ret q;
  let prog = Asm.assemble b ~entry:"main" in
  let anns = Procedure.analyze_program prog in
  Alcotest.(check bool) "no annotation inside library" true
    (List.for_all (fun (a : Procedure.annotation) -> a.Procedure.addr < 1) anns)

let run_result prog =
  let st = Exec.create prog in
  ignore (Exec.run st);
  Exec.peek st 0

let test_annotate_noop_preserves_semantics () =
  let prog = loop_program () in
  let annotated, anns = Annotate.apply Annotate.Noop prog in
  Alcotest.(check bool) "iqsets inserted" true (List.length anns > 0);
  Alcotest.(check int) "program result unchanged" (run_result prog)
    (run_result annotated);
  let iqsets =
    Prog.count_matching annotated (fun i -> i.Instr.op = Opcode.Iqset)
  in
  Alcotest.(check int) "one iqset per annotation" (List.length anns) iqsets

let test_annotate_tagged_preserves_program () =
  let prog = loop_program () in
  let tagged, anns = Annotate.apply Annotate.Tagged prog in
  Alcotest.(check int) "no instructions added" (Prog.length prog)
    (Prog.length tagged);
  Alcotest.(check int) "program result unchanged" (run_result prog)
    (run_result tagged);
  let tags =
    Prog.count_matching tagged (fun i -> i.Instr.tag <> None)
  in
  Alcotest.(check int) "one tag per annotation" (List.length anns) tags

let test_noop_and_tagged_values_agree () =
  let prog = loop_program () in
  let _, anns_noop = Annotate.apply Annotate.Noop prog in
  let _, anns_tag = Annotate.apply Annotate.Tagged prog in
  Alcotest.(check bool) "same analysis values" true (anns_noop = anns_tag)

let test_improved_widen_only () =
  (* The interprocedural refinement may only widen (or keep) annotations of
     post-call blocks, never shrink anything below the base analysis. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 5;
  Asm.call p "work";
  Asm.add p (r 2) (r 1) (r 1);
  Asm.mul p (r 3) (r 2) (r 2);
  Asm.halt p;
  let q = Asm.proc b "work" in
  Asm.mul q (r 4) (r 1) (r 1);
  Asm.mul q (r 5) (r 4) (r 1);
  Asm.ret q;
  let prog = Asm.assemble b ~entry:"main" in
  let base = Procedure.analyze_program prog in
  let impr = Procedure.analyze_program ~opts:Options.improved prog in
  List.iter
    (fun (a : Procedure.annotation) ->
      match
        List.find_opt
          (fun (x : Procedure.annotation) -> x.Procedure.addr = a.Procedure.addr)
          impr
      with
      | Some i ->
        Alcotest.(check bool)
          (Printf.sprintf "addr %d not shrunk" a.Procedure.addr)
          true
          (i.Procedure.value >= a.Procedure.value)
      | None -> Alcotest.fail "improved lost an annotation")
    base

let test_slack_widens () =
  let prog = loop_program () in
  let base = Procedure.analyze_program prog in
  let slacked =
    Procedure.analyze_program
      ~opts:{ Options.default with Options.slack = 4 }
      prog
  in
  List.iter2
    (fun (a : Procedure.annotation) (s : Procedure.annotation) ->
      Alcotest.(check bool) "slack adds entries" true
        (s.Procedure.value >= a.Procedure.value
        && s.Procedure.value <= min 80 (a.Procedure.value + 4)))
    base slacked

let test_values_capped_at_iq_size () =
  (* A very wide independent block cannot ask for more than the queue. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  for i = 1 to 31 do
    Asm.li p (r i) i
  done;
  for i = 1 to 31 do
    Asm.addi p (r i) (r i) 1
  done;
  for _ = 1 to 5 do
    for i = 1 to 31 do
      Asm.addi p (r i) (r i) 1
    done
  done;
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let anns =
    Procedure.analyze_program
      ~opts:{ Sdiq_core.Options.default with Sdiq_core.Options.iq_size = 16 }
      prog
  in
  List.iter
    (fun (a : Procedure.annotation) ->
      Alcotest.(check bool) "capped" true (a.Procedure.value <= 16))
    anns

let test_compile_time_positive () =
  let prog = loop_program () in
  let m = Sdiq_core.Compile_time.measure ~repeat:1 prog in
  Alcotest.(check bool) "limited >= baseline" true
    (m.Sdiq_core.Compile_time.limited_ms
     >= m.Sdiq_core.Compile_time.baseline_ms -. 0.5)

let suite =
  [
    Alcotest.test_case "fig3 need = 4" `Quick test_fig3_need;
    Alcotest.test_case "fig3 issue cycles" `Quick test_fig3_issue_cycles;
    Alcotest.test_case "fig1 need = 2" `Quick test_fig1_need_is_two;
    Alcotest.test_case "independent block width-limited" `Quick
      test_independent_block_width_limited;
    Alcotest.test_case "serial chain needs one" `Quick
      test_serial_chain_needs_one;
    Alcotest.test_case "load assumed hit" `Quick test_load_latency_assumed_hit;
    Alcotest.test_case "busy units delay issue" `Quick
      test_busy_units_delay_issue;
    Alcotest.test_case "unpipelined div serialises" `Quick
      test_unpipelined_div_serialises;
    Alcotest.test_case "procedure annotations" `Quick
      test_procedure_annotations_cover_blocks;
    Alcotest.test_case "annotation addresses unique" `Quick
      test_annotation_addresses_unique;
    Alcotest.test_case "library call forces max" `Quick
      test_library_call_forces_max;
    Alcotest.test_case "library proc not analyzed" `Quick
      test_library_proc_not_analyzed;
    Alcotest.test_case "noop annotation preserves semantics" `Quick
      test_annotate_noop_preserves_semantics;
    Alcotest.test_case "tagged annotation preserves program" `Quick
      test_annotate_tagged_preserves_program;
    Alcotest.test_case "noop and tagged values agree" `Quick
      test_noop_and_tagged_values_agree;
    Alcotest.test_case "improved only widens" `Quick test_improved_widen_only;
    Alcotest.test_case "slack widens" `Quick test_slack_widens;
    Alcotest.test_case "values capped at iq size" `Quick
      test_values_capped_at_iq_size;
    Alcotest.test_case "compile time measurable" `Quick
      test_compile_time_positive;
  ]
