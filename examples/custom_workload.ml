(* Writing your own workload and evaluating every technique on it.

   The kernel here is a little histogram builder: stream through a data
   array, bucket each value, and periodically rescale the histogram with
   a multiply-heavy pass — two loops of different character in one
   program, which is exactly what exercises the analysis's per-region
   values.

     dune exec examples/custom_workload.exe *)

open Sdiq_isa
open Sdiq_util

let r = Reg.int

let data_base = 0x1_0000
let data_words = 8192
let hist_base = 0x5_0000

let build () =
  Sdiq_workloads.Bench.make ~name:"histogram"
    ~description:"bucket a stream, rescale periodically"
    ~build:(fun b ->
      let p = Asm.proc b "main" in
      Asm.li p (r 1) 30_000; (* items to process *)
      Asm.li p (r 2) data_base;
      Asm.li p (r 20) hist_base;
      Asm.label p "stream";
      (* bucket two items per iteration *)
      Asm.load p (r 3) (r 2) 0;
      Asm.load p (r 4) (r 2) 4;
      Asm.andi p (r 5) (r 3) 255;
      Asm.andi p (r 6) (r 4) 255;
      Asm.shli p (r 5) (r 5) 2;
      Asm.shli p (r 6) (r 6) 2;
      Asm.add p (r 5) (r 5) (r 20);
      Asm.add p (r 6) (r 6) (r 20);
      Asm.load p (r 7) (r 5) 0;
      Asm.addi p (r 7) (r 7) 1;
      Asm.store p (r 5) (r 7) 0;
      Asm.load p (r 8) (r 6) 0;
      Asm.addi p (r 8) (r 8) 1;
      Asm.store p (r 6) (r 8) 0;
      (* every 1024 items, rescale the histogram *)
      Asm.andi p (r 9) (r 1) 1023;
      Asm.bne p (r 9) Reg.zero "advance";
      Asm.call p "rescale";
      Asm.label p "advance";
      Asm.addi p (r 2) (r 2) 8;
      Asm.li p (r 9) (data_base + (data_words * 4) - 8);
      Asm.blt p (r 2) (r 9) "no_wrap";
      Asm.li p (r 2) data_base;
      Asm.label p "no_wrap";
      Asm.addi p (r 1) (r 1) (-2);
      Asm.bne p (r 1) Reg.zero "stream";
      Asm.halt p;
      (* rescale: multiply every bucket by 7/8 *)
      let q = Asm.proc b "rescale" in
      Asm.li q (r 10) 0;
      Asm.label q "rloop";
      Asm.add q (r 11) (r 10) (r 20);
      Asm.load q (r 12) (r 11) 0;
      Asm.li q (r 13) 7;
      Asm.mul q (r 12) (r 12) (r 13);
      Asm.shri q (r 12) (r 12) 3;
      Asm.store q (r 11) (r 12) 0;
      Asm.addi q (r 10) (r 10) 4;
      Asm.li q (r 14) 1024;
      Asm.blt q (r 10) (r 14) "rloop";
      Asm.ret q)
    ~init:(fun st ->
      let rng = Rng.create 0xCAFE in
      Sdiq_workloads.Gen.fill_random rng st ~base:data_base ~len:data_words
        ~max:100_000)

let () =
  let bench = build () in
  (* Show what the compiler decided for each region. *)
  let _, anns =
    Sdiq_core.Annotate.(apply Noop) bench.Sdiq_workloads.Bench.prog
  in
  Fmt.pr "the analysis found %d regions:@." (List.length anns);
  List.iter
    (fun (a : Sdiq_core.Procedure.annotation) ->
      Fmt.pr "  addr %3d -> %2d entries%s@." a.addr a.value
        (match a.loop_span with Some _ -> " (loop)" | None -> ""))
    anns;
  (* Evaluate every technique. *)
  let runner = Sdiq_harness.Runner.create ~budget:60_000 ~benches:[ bench ] () in
  Fmt.pr "@.%-10s %8s %8s %10s %10s@." "technique" "IPC" "IQ occ" "IQ dyn%"
    "IQ static%";
  List.iter
    (fun tech ->
      let stats = Sdiq_harness.Runner.run runner "histogram" tech in
      if tech = Sdiq_harness.Technique.Baseline then
        Fmt.pr "%-10s %8.3f %8.1f %10s %10s@."
          (Sdiq_harness.Technique.name tech)
          (Sdiq_cpu.Stats.ipc stats)
          (Sdiq_cpu.Stats.avg_iq_occupancy stats)
          "-" "-"
      else
        let s = Sdiq_harness.Runner.savings runner "histogram" tech in
        Fmt.pr "%-10s %8.3f %8.1f %10.1f %10.1f@."
          (Sdiq_harness.Technique.name tech)
          (Sdiq_cpu.Stats.ipc stats)
          (Sdiq_cpu.Stats.avg_iq_occupancy stats)
          s.Sdiq_power.Report.iq_dynamic_saving_pct
          s.Sdiq_power.Report.iq_static_saving_pct)
    Sdiq_harness.Technique.all
