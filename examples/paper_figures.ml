(* The paper's worked examples, reproduced end to end.

   Figure 1: a 6-instruction basic block causes 18 wakeups in the
   baseline queue but only 10 when limited to 2 entries, with no
   slowdown. Figure 3: the pseudo issue queue finds that block's cousin
   needs 4 entries. Figure 4: the loop whose cyclic dependence set yields
   the equations b=a_{i+1}, c=d=a_{i+2}, e=f=a_{i+3} and a requirement of
   15 entries.

     dune exec examples/paper_figures.exe *)

open Sdiq_isa

let r = Reg.int

(* --- Figure 1: wakeups in the baseline vs the limited queue ------------ *)

let figure1 () =
  Fmt.pr "=== Figure 1: issue queue power savings ===@.";
  (* a,b independent; c<-a, d<-b; e<-c,d; f<-b,d — as in the paper. *)
  let q = Sdiq_cpu.Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  (* Baseline: all six dispatched at once. Tags 10..13 are the results of
     a,b,c,d; f's r2 operand comes from b. *)
  let _a = Sdiq_cpu.Iq.dispatch q ~rob_idx:0 ~ops:[ (1, true) ] in
  let _b = Sdiq_cpu.Iq.dispatch q ~rob_idx:1 ~ops:[ (2, true) ] in
  let sc = Sdiq_cpu.Iq.dispatch q ~rob_idx:2 ~ops:[ (10, false) ] in
  let sd = Sdiq_cpu.Iq.dispatch q ~rob_idx:3 ~ops:[ (11, false) ] in
  let _e = Sdiq_cpu.Iq.dispatch q ~rob_idx:4 ~ops:[ (12, false); (13, false) ] in
  let _f = Sdiq_cpu.Iq.dispatch q ~rob_idx:5 ~ops:[ (11, false); (13, false) ] in
  Sdiq_cpu.Iq.issue q 0;
  Sdiq_cpu.Iq.issue q 1;
  ignore (Sdiq_cpu.Iq.broadcast_many q [ 10; 11 ]);
  Sdiq_cpu.Iq.issue q sc;
  Sdiq_cpu.Iq.issue q sd;
  ignore (Sdiq_cpu.Iq.broadcast_many q [ 12; 13 ]);
  Fmt.pr "baseline queue: %d wakeups (paper: 18)@." q.Sdiq_cpu.Iq.wakeups_gated;
  (* Limited to 2 entries: c,d dispatch only after a,b issue; e,f after
     c,d. f's b-operand is ready by the time f dispatches. *)
  let q = Sdiq_cpu.Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  let sa = Sdiq_cpu.Iq.dispatch q ~rob_idx:0 ~ops:[ (1, true) ] in
  let sb = Sdiq_cpu.Iq.dispatch q ~rob_idx:1 ~ops:[ (2, true) ] in
  Sdiq_cpu.Iq.issue q sa;
  Sdiq_cpu.Iq.issue q sb;
  let sc = Sdiq_cpu.Iq.dispatch q ~rob_idx:2 ~ops:[ (10, false) ] in
  let sd = Sdiq_cpu.Iq.dispatch q ~rob_idx:3 ~ops:[ (11, false) ] in
  ignore (Sdiq_cpu.Iq.broadcast_many q [ 10; 11 ]);
  Sdiq_cpu.Iq.issue q sc;
  Sdiq_cpu.Iq.issue q sd;
  ignore (Sdiq_cpu.Iq.dispatch q ~rob_idx:4 ~ops:[ (12, false); (13, false) ]);
  ignore (Sdiq_cpu.Iq.dispatch q ~rob_idx:5 ~ops:[ (11, true); (13, false) ]);
  ignore (Sdiq_cpu.Iq.broadcast_many q [ 12; 13 ]);
  Fmt.pr "limited queue:  %d wakeups (paper: 10)@.@." q.Sdiq_cpu.Iq.wakeups_gated

(* --- Figure 3: pseudo issue queue on a basic block ---------------------- *)

let figure3 () =
  Fmt.pr "=== Figure 3: IQ entries needed in a DAG block ===@.";
  let block =
    [|
      Instr.make ~dst:(r 1) ~src1:(r 10) ~imm:1 Opcode.Addi; (* a *)
      Instr.make ~dst:(r 2) ~src1:(r 1) ~imm:1 Opcode.Addi;  (* b <- a *)
      Instr.make ~dst:(r 3) ~src1:(r 2) ~imm:1 Opcode.Addi;  (* c <- b *)
      Instr.make ~dst:(r 4) ~src1:(r 1) ~imm:1 Opcode.Addi;  (* d <- a *)
      Instr.make ~dst:(r 5) ~src1:(r 4) ~imm:1 Opcode.Addi;  (* e <- d *)
      Instr.make ~dst:(r 6) ~src1:(r 4) ~imm:1 Opcode.Addi;  (* f <- d *)
    |]
  in
  let res = Sdiq_core.Pseudo_iq.analyze block in
  Array.iteri
    (fun i c ->
      Fmt.pr "  %c issues on iteration %d@."
        (Char.chr (Char.code 'a' + i))
        c)
    res.Sdiq_core.Pseudo_iq.issue_cycle;
  Fmt.pr "overall needs %d entries (paper: 4)@.@." res.Sdiq_core.Pseudo_iq.need

(* --- Figure 4: CDS equations for a loop --------------------------------- *)

let figure4 () =
  Fmt.pr "=== Figure 4: equations for instructions within a loop ===@.";
  let body =
    [|
      Instr.make ~dst:(r 1) ~src1:(r 1) ~imm:1 Opcode.Addi; (* a = a' + 1 *)
      Instr.make ~dst:(r 2) ~src1:(r 1) ~imm:1 Opcode.Addi; (* b = a + 1 *)
      Instr.make ~dst:(r 3) ~src1:(r 2) ~imm:1 Opcode.Addi; (* c = b + 1 *)
      Instr.make ~dst:(r 4) ~src1:(r 2) ~imm:1 Opcode.Addi; (* d = b + 1 *)
      Instr.make ~dst:(r 5) ~src1:(r 4) ~imm:1 Opcode.Addi; (* e = d + 1 *)
      Instr.make ~dst:(r 6) ~src1:(r 3) ~imm:1 Opcode.Addi; (* f = c + 1 *)
    |]
  in
  let g = Sdiq_ddg.Ddg.of_loop_body body in
  let sch = Sdiq_ddg.Cds.schedule g in
  Fmt.pr "initiation interval: %d cycle/iteration@." sch.Sdiq_ddg.Cds.ii;
  Fmt.pr "critical CDS: {%s}@."
    (String.concat ", "
       (List.map
          (fun i -> String.make 1 (Char.chr (Char.code 'a' + i)))
          sch.Sdiq_ddg.Cds.cds));
  List.iter
    (fun (e : Sdiq_ddg.Cds.equation) ->
      Fmt.pr "  %c_i issues with a_(i+%d)@."
        (Char.chr (Char.code 'a' + e.node))
        e.iter_offset)
    sch.Sdiq_ddg.Cds.equations;
  let need = Sdiq_ddg.Cds.iq_need g sch in
  Fmt.pr "entries needed: %d (paper: 15)@.@." need

(* --- Figure 2 (as a dynamic trace): new_head motion --------------------- *)

let figure2 () =
  Fmt.pr "=== Figure 2: new_head pointer and max_new_range ===@.";
  let q = Sdiq_cpu.Iq.create ~size:16 ~bank_size:4 ~tags:224 in
  Sdiq_cpu.Iq.start_new_region q;
  let sa = Sdiq_cpu.Iq.dispatch q ~rob_idx:0 ~ops:[] in
  let sb = Sdiq_cpu.Iq.dispatch q ~rob_idx:1 ~ops:[] in
  let sc = Sdiq_cpu.Iq.dispatch q ~rob_idx:2 ~ops:[] in
  ignore (Sdiq_cpu.Iq.dispatch q ~rob_idx:3 ~ops:[]);
  Sdiq_cpu.Iq.issue q sb;
  Sdiq_cpu.Iq.issue q sc;
  Fmt.pr "a,_,_,d resident: span = %d slots (max_new_range 4: full)@."
    (Sdiq_cpu.Iq.new_region_span q);
  Sdiq_cpu.Iq.issue q sa;
  Fmt.pr "a issues -> new_head sweeps to d: span = %d (3 more may dispatch)@.@."
    (Sdiq_cpu.Iq.new_region_span q)

let () =
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ()
