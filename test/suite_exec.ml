(* Tests for the functional executor. *)

open Sdiq_isa

let r = Reg.int
let f = Reg.fp

let run_prog build =
  let b = Asm.create () in
  build b;
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let steps = Exec.run st in
  (st, steps)

let test_arith () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 7;
        Asm.li p (r 2) 3;
        Asm.add p (r 3) (r 1) (r 2);
        Asm.sub p (r 4) (r 1) (r 2);
        Asm.mul p (r 5) (r 1) (r 2);
        Asm.div p (r 6) (r 1) (r 2);
        Asm.and_ p (r 7) (r 1) (r 2);
        Asm.or_ p (r 8) (r 1) (r 2);
        Asm.xor p (r 9) (r 1) (r 2);
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.store p Reg.zero (r 5) 2;
        Asm.store p Reg.zero (r 6) 3;
        Asm.store p Reg.zero (r 7) 4;
        Asm.store p Reg.zero (r 8) 5;
        Asm.store p Reg.zero (r 9) 6;
        Asm.halt p)
  in
  Alcotest.(check int) "add" 10 (Exec.peek st 0);
  Alcotest.(check int) "sub" 4 (Exec.peek st 1);
  Alcotest.(check int) "mul" 21 (Exec.peek st 2);
  Alcotest.(check int) "div" 2 (Exec.peek st 3);
  Alcotest.(check int) "and" 3 (Exec.peek st 4);
  Alcotest.(check int) "or" 7 (Exec.peek st 5);
  Alcotest.(check int) "xor" 4 (Exec.peek st 6)

let test_div_by_zero_total () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.div p (r 2) (r 1) Reg.zero;
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "div by zero yields 0" 0 (Exec.peek st 0)

let test_shifts () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.shli p (r 2) (r 1) 3;
        Asm.shri p (r 3) (r 2) 2;
        Asm.store p Reg.zero (r 2) 0;
        Asm.store p Reg.zero (r 3) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "shl" 40 (Exec.peek st 0);
  Alcotest.(check int) "shr" 10 (Exec.peek st 1)

let test_compare_ops () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 4;
        Asm.li p (r 2) 9;
        Asm.slt p (r 3) (r 1) (r 2);
        Asm.sle p (r 4) (r 2) (r 2);
        Asm.seq p (r 5) (r 1) (r 2);
        Asm.sne p (r 6) (r 1) (r 2);
        Asm.slti p (r 7) (r 1) 5;
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.store p Reg.zero (r 5) 2;
        Asm.store p Reg.zero (r 6) 3;
        Asm.store p Reg.zero (r 7) 4;
        Asm.halt p)
  in
  Alcotest.(check int) "slt" 1 (Exec.peek st 0);
  Alcotest.(check int) "sle" 1 (Exec.peek st 1);
  Alcotest.(check int) "seq" 0 (Exec.peek st 2);
  Alcotest.(check int) "sne" 1 (Exec.peek st 3);
  Alcotest.(check int) "slti" 1 (Exec.peek st 4)

let test_loop_sum () =
  (* Sum 1..10 = 55 *)
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 10;
        Asm.li p (r 2) 0;
        Asm.label p "loop";
        Asm.add p (r 2) (r 2) (r 1);
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "sum 1..10" 55 (Exec.peek st 0)

let test_fib_recursive () =
  (* fib(10) = 55 via recursion with an explicit memory stack. *)
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 10;
        Asm.li p (r 29) 1000; (* stack pointer *)
        Asm.call p "fib";
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p;
        (* fib: arg in r1, result in r2, stack pointer r29 *)
        let q = Asm.proc b "fib" in
        Asm.slti q (r 3) (r 1) 2;
        Asm.beq q (r 3) Reg.zero "rec";
        Asm.mov q (r 2) (r 1);
        Asm.ret q;
        Asm.label q "rec";
        (* push r1 *)
        Asm.store q (r 29) (r 1) 0;
        Asm.addi q (r 29) (r 29) 1;
        Asm.addi q (r 1) (r 1) (-1);
        Asm.call q "fib";
        (* pop r1, push fib(n-1) *)
        Asm.addi q (r 29) (r 29) (-1);
        Asm.load q (r 1) (r 29) 0;
        Asm.store q (r 29) (r 2) 0;
        Asm.addi q (r 29) (r 29) 1;
        Asm.addi q (r 1) (r 1) (-2);
        Asm.call q "fib";
        Asm.addi q (r 29) (r 29) (-1);
        Asm.load q (r 3) (r 29) 0;
        Asm.add q (r 2) (r 2) (r 3);
        Asm.ret q)
  in
  Alcotest.(check int) "fib 10" 55 (Exec.peek st 0)

let test_memory () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 500;
        Asm.li p (r 2) 42;
        Asm.store p (r 1) (r 2) 8;
        Asm.load p (r 3) (r 1) 8;
        Asm.load p (r 4) (r 1) 999; (* unwritten: 0 *)
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "store/load" 42 (Exec.peek st 0);
  Alcotest.(check int) "unwritten is 0" 0 (Exec.peek st 1)

let test_fp_ops () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.fli p (f 1) 1.5;
        Asm.fli p (f 2) 2.5;
        Asm.fadd p (f 3) (f 1) (f 2);
        Asm.fmul p (f 4) (f 1) (f 2);
        Asm.ftoi p (r 1) (f 3);
        Asm.store p Reg.zero (r 1) 0;
        Asm.fstore p Reg.zero (f 4) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "fadd then ftoi" 4 (Exec.peek st 0);
  Alcotest.(check (float 1e-9)) "fmul" 3.75 (Exec.fpeek st 1)

let test_branch_outcomes_in_dyn () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 1;
  Asm.beq p (r 1) Reg.zero "skip"; (* not taken *)
  Asm.jmp p "end"; (* taken *)
  Asm.label p "skip";
  Asm.nop p;
  Asm.label p "end";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let d1 = Exec.step st in
  let d2 = Exec.step st in
  let d3 = Exec.step st in
  (match d2 with
  | Some d -> Alcotest.(check bool) "beq not taken" false d.Exec.taken
  | None -> Alcotest.fail "missing dyn");
  match d3 with
  | Some d ->
    Alcotest.(check bool) "jmp taken" true d.Exec.taken;
    Alcotest.(check int) "jmp next pc" 4 d.Exec.next_pc;
    ignore d1
  | None -> Alcotest.fail "missing dyn"

let test_halt_stops () =
  let st, steps =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.halt p;
        Asm.li p (r 1) 99;
        Asm.store p Reg.zero (r 1) 0)
  in
  Alcotest.(check int) "one step" 1 steps;
  Alcotest.(check int) "code after halt not executed" 0 (Exec.peek st 0)

let test_ret_from_entry_halts () =
  let _, steps =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.nop p;
        Asm.ret p)
  in
  Alcotest.(check int) "nop + ret" 2 steps

let test_iqset_is_semantic_nop () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.iqset p 12;
        Asm.store p Reg.zero (r 1) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "iqset does not change state" 5 (Exec.peek st 0)

let test_max_steps_bound () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.label p "spin";
  Asm.jmp p "spin";
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let steps = Exec.run ~max_steps:100 st in
  Alcotest.(check int) "bounded" 100 steps

(* --- shadow states: the wrong-path executor's datapath --- *)

let one_proc_prog () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.halt p;
  Asm.assemble b ~entry:"main"

let store_i ~base ~value off =
  Instr.make ~src1:base ~src2:value ~imm:off Opcode.Store

let load_i ~dst ~base off = Instr.make ~dst ~src1:base ~imm:off Opcode.Load

let test_shadow_stores_stay_in_overlay () =
  let base = Exec.create (one_proc_prog ()) in
  Exec.poke base 10 5;
  Exec.fpoke base 11 1.5;
  let sh = Exec.shadow base in
  Exec.fork sh;
  sh.Exec.iregs.(3) <- 99;
  sh.Exec.fregs.(2) <- 2.5;
  Exec.datapath sh (store_i ~base:Reg.zero ~value:(r 3) 10);
  Alcotest.(check int) "store address" 10 sh.Exec.d_addr;
  Exec.datapath sh
    (Instr.make ~src1:Reg.zero ~src2:(f 2) ~imm:11 Opcode.Fstore);
  Exec.datapath sh (store_i ~base:Reg.zero ~value:(r 3) 12);
  Alcotest.(check int) "base int memory untouched" 5 (Exec.peek base 10);
  Alcotest.(check (float 0.)) "base fp memory untouched" 1.5
    (Exec.fpeek base 11);
  Alcotest.(check int) "no new base binding" 0 (Exec.peek base 12);
  Alcotest.(check int) "shadow sees its store" 99 (Exec.peek sh 10);
  Alcotest.(check (float 0.)) "shadow sees its fp store" 2.5
    (Exec.fpeek sh 11)

let test_shadow_loads_read_overlay_then_base () =
  let base = Exec.create (one_proc_prog ()) in
  Exec.poke base 20 7;
  Exec.poke base 21 8;
  let sh = Exec.shadow base in
  Exec.fork sh;
  Exec.datapath sh (load_i ~dst:(r 4) ~base:Reg.zero 20);
  Alcotest.(check int) "unwritten: reads the base" 7 sh.Exec.iregs.(4);
  Alcotest.(check int) "load address" 20 sh.Exec.d_addr;
  sh.Exec.iregs.(5) <- 30;
  Exec.datapath sh (store_i ~base:Reg.zero ~value:(r 5) 20);
  Exec.datapath sh (load_i ~dst:(r 4) ~base:Reg.zero 20);
  Alcotest.(check int) "written: reads the overlay" 30 sh.Exec.iregs.(4);
  (* A zero stored in the overlay still shadows the base. *)
  Exec.datapath sh (store_i ~base:Reg.zero ~value:Reg.zero 21);
  Alcotest.(check int) "overlay zero wins" 0 (Exec.peek sh 21);
  Exec.poke base 22 9;
  Alcotest.(check int) "later base writes show through" 9 (Exec.peek sh 22);
  Exec.datapath sh (Instr.make ~dst:(r 6) ~src1:(r 5) ~imm:1 Opcode.Addi);
  Alcotest.(check int) "non-memory op: no address" (-1) sh.Exec.d_addr;
  Alcotest.(check int) "arithmetic on shadow registers" 31 sh.Exec.iregs.(6);
  Alcotest.(check int) "base registers untouched" 0 base.Exec.iregs.(6)

let test_fork_copies_registers_drops_overlay () =
  let base = Exec.create (one_proc_prog ()) in
  Exec.poke base 40 1;
  base.Exec.iregs.(7) <- 42;
  base.Exec.fregs.(1) <- 3.25;
  let sh = Exec.shadow base in
  Exec.fork sh;
  Alcotest.(check int) "int registers copied" 42 sh.Exec.iregs.(7);
  Alcotest.(check (float 0.)) "fp registers copied" 3.25 sh.Exec.fregs.(1);
  sh.Exec.iregs.(7) <- 0;
  Exec.poke sh 40 2;
  Exec.fpoke sh 41 4.;
  base.Exec.iregs.(8) <- 5;
  Exec.fork sh;
  Alcotest.(check (array int)) "registers re-copied" base.Exec.iregs
    sh.Exec.iregs;
  Alcotest.(check int) "int overlay dropped" 1 (Exec.peek sh 40);
  Alcotest.(check (float 0.)) "fp overlay dropped" 0. (Exec.fpeek sh 41);
  Alcotest.check_raises "fork needs a shadow"
    (Invalid_argument "Exec.fork: not a shadow state") (fun () ->
      Exec.fork base)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "div by zero is total" `Quick test_div_by_zero_total;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "comparisons" `Quick test_compare_ops;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "recursive fib" `Quick test_fib_recursive;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "fp ops" `Quick test_fp_ops;
    Alcotest.test_case "branch outcomes" `Quick test_branch_outcomes_in_dyn;
    Alcotest.test_case "halt stops" `Quick test_halt_stops;
    Alcotest.test_case "ret from entry halts" `Quick test_ret_from_entry_halts;
    Alcotest.test_case "iqset is a semantic nop" `Quick
      test_iqset_is_semantic_nop;
    Alcotest.test_case "max steps bound" `Quick test_max_steps_bound;
    Alcotest.test_case "shadow stores stay in the overlay" `Quick
      test_shadow_stores_stay_in_overlay;
    Alcotest.test_case "shadow loads read overlay then base" `Quick
      test_shadow_loads_read_overlay_then_base;
    Alcotest.test_case "fork copies registers, drops overlay" `Quick
      test_fork_copies_registers_drops_overlay;
  ]
