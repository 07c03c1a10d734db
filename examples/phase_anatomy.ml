(* Why hardware-adaptive resizing lags: the paper's core motivation.

   "There is inevitably a delay in sensing rapid phase changes and
   adjusting accordingly. This leads to either a loss of IPC due to too
   small an issue queue or excessive power dissipation due to too large an
   issue queue." (Section 1)

   This example builds a program that alternates between a wide-ILP phase
   (wants a big queue) and a serial pointer-ish phase (needs almost none),
   then traces the abella policy's queue size against the phase structure
   and against the software policy's instantaneous per-region windows.

     dune exec examples/phase_anatomy.exe *)

open Sdiq_isa

let r = Reg.int

(* Alternating phases, ~600 instructions each. *)
let program () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 60; (* phase pairs *)
  Asm.label p "phases";
  (* wide phase: six independent chains *)
  Asm.li p (r 2) 60;
  Asm.label p "wide";
  for i = 3 to 8 do
    Asm.addi p (r i) (r i) 1
  done;
  Asm.addi p (r 2) (r 2) (-1);
  Asm.bne p (r 2) Reg.zero "wide";
  (* serial phase: one multiply chain *)
  Asm.li p (r 2) 120;
  Asm.ori p (r 9) (r 9) 3;
  Asm.label p "serial";
  Asm.mul p (r 9) (r 9) (r 9);
  Asm.ori p (r 9) (r 9) 3;
  Asm.andi p (r 9) (r 9) 65535;
  Asm.addi p (r 2) (r 2) (-1);
  Asm.bne p (r 2) Reg.zero "serial";
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "phases";
  Asm.halt p;
  Asm.assemble b ~entry:"main"

let trace_policy name policy prog =
  let t = Sdiq_cpu.Pipeline.create ~policy prog in
  Fmt.pr "--- %s ---@." name;
  Fmt.pr "%8s %8s %10s %12s@." "cycle" "IQ occ" "banks on" "active/limit";
  let next_sample = ref 0 in
  Sdiq_cpu.Pipeline.on_cycle_end t (fun t ->
      let module D = Sdiq_cpu.Pipeline.Debug in
      if D.cycle t >= !next_sample then begin
        next_sample := !next_sample + 500;
        Fmt.pr "%8d %8d %10d %12d@." (D.cycle t)
          (Sdiq_cpu.Iq.occupancy (D.iq t))
          (Sdiq_cpu.Iq.banks_on (D.iq t))
          (Sdiq_cpu.Policy.current_limit (D.policy t) (D.iq t))
      end);
  let s = Sdiq_cpu.Pipeline.run t in
  Fmt.pr "finished: %d cycles, IPC %.2f, avg occupancy %.1f, avg banks %.2f@.@."
    s.Sdiq_cpu.Stats.cycles (Sdiq_cpu.Stats.ipc s)
    (Sdiq_cpu.Stats.avg_iq_occupancy s)
    (Sdiq_cpu.Stats.avg_iq_banks_on s)

let () =
  let prog = program () in
  (* The compiler sees both phases statically and sizes each loop's
     region: print its verdicts. *)
  let annotated, anns = Sdiq_core.Annotate.(apply Tagged) prog in
  Fmt.pr "compiler's per-region verdicts:@.";
  List.iter
    (fun (a : Sdiq_core.Procedure.annotation) ->
      Fmt.pr "  addr %2d -> %2d entries%s@." a.addr a.value
        (match a.loop_span with Some _ -> " (loop)" | None -> ""))
    anns;
  Fmt.pr "@.";
  trace_policy "baseline (80 entries, always)" Sdiq_cpu.Policy.unlimited prog;
  trace_policy "abella (adaptive, window-lagged)"
    (Sdiq_cpu.Policy.abella ())
    prog;
  trace_policy "software (instantaneous per-region windows)"
    (Sdiq_cpu.Policy.software ())
    annotated
