(* Quickstart: the whole system in fifty lines.

   Build a small program with the assembler, run the paper's compiler
   analysis, simulate it on the Table 1 machine with and without the
   software-directed issue queue, and print the power savings.

     dune exec examples/quickstart.exe *)

open Sdiq_isa

let r = Reg.int

(* A kernel with real ILP: two independent accumulation chains over an
   array, plus a multiply — enough structure for the analysis to find a
   non-trivial issue-queue requirement. *)
let program () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 20_000;          (* iterations *)
  Asm.li p (r 2) 0;               (* array cursor *)
  Asm.li p (r 3) 0;               (* sum *)
  Asm.li p (r 4) 1;               (* product-ish chain *)
  Asm.label p "loop";
  Asm.load p (r 5) (r 2) 4096;
  Asm.load p (r 6) (r 2) 8192;
  Asm.add p (r 3) (r 3) (r 5);
  Asm.mul p (r 7) (r 5) (r 6);
  Asm.xor p (r 4) (r 4) (r 7);
  Asm.addi p (r 2) (r 2) 4;
  Asm.andi p (r 2) (r 2) 16383;
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.store p Reg.zero (r 3) 0;
  Asm.store p Reg.zero (r 4) 4;
  Asm.halt p;
  Asm.assemble b ~entry:"main"

let () =
  let prog = program () in

  (* 1. The compiler pass: analyse and insert special NOOPs. *)
  let annotated, annotations = Sdiq_core.Annotate.(apply Noop) prog in
  Fmt.pr "compiler analysis produced %d annotations:@."
    (List.length annotations);
  List.iter
    (fun (a : Sdiq_core.Procedure.annotation) ->
      Fmt.pr "  address %2d needs %2d IQ entries%s@." a.addr a.value
        (match a.loop_span with Some _ -> " (loop)" | None -> ""))
    annotations;

  (* 2. Simulate baseline and software-directed configurations. *)
  let base = Sdiq_cpu.Pipeline.(run (create prog)) in
  let tech =
    Sdiq_cpu.Pipeline.(
      run (create ~policy:(Sdiq_cpu.Policy.software ()) annotated))
  in
  Fmt.pr "@.baseline:  %a@." Sdiq_cpu.Stats.pp base;
  Fmt.pr "@.directed:  %a@." Sdiq_cpu.Stats.pp tech;

  (* 3. The normalised savings the paper reports. *)
  let savings = Sdiq_power.Report.compute ~base tech in
  Fmt.pr "@.savings:   %a@." Sdiq_power.Report.pp savings
