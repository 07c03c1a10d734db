(* Tightening audit over the benchmark suite.

   For every benchmark: audit the tightened recipe (Driver.audit_mode:
   the trip-count-refined soundness pass plus the delivery and
   wrong-path lints on the binary Driver.apply_mode delivers, in tag
   mode, so the instruction stream is untouched), and build the
   occupancy/energy certificate of that binary. Exits non-zero on any
   error finding, so CI can gate on it. Dynamic validation (trace identity, grid energy,
   certificate-vs-measured) lives in the test suite; this tool is the
   fast static gate. *)

module Driver = Sdiq_analysis.Driver
module Finding = Sdiq_analysis.Finding
module Tighten = Sdiq_analysis.Tighten
module Certificate = Sdiq_analysis.Certificate
open Cmdliner

let cli = Cli.tool "tighten"

let quiet_arg =
  let doc = "Print only the benchmarks with error findings, and the verdict." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let run quiet =
  let mode = Option.get (Driver.mode_named "tightened") in
  let config = Sdiq_cpu.Config.default in
  let total_errors = ref 0 in
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      let prog = bench.Sdiq_workloads.Bench.prog in
      let tripcounts = Sdiq_analysis.Tripcount.of_program prog in
      let findings = Driver.audit_mode ~tripcounts mode prog in
      let annotated, _ = Driver.apply_mode ~tripcounts mode prog in
      let cert = Certificate.build config annotated in
      let anchors, narrowed, reduction = Tighten.narrowing ~tripcounts prog in
      total_errors := !total_errors + Finding.errors findings;
      if not quiet then begin
        Fmt.pr "== %s: %d anchors, %d narrowed vs improved (-%d entries), \
                certificate bound %d ==@."
          bench.Sdiq_workloads.Bench.name anchors narrowed reduction
          cert.Certificate.occ_bound;
        List.iter
          (fun f ->
            if f.Finding.severity <> Finding.Info then
              Fmt.pr "%a@." Finding.pp f)
          findings;
        Fmt.pr "   %a@." Finding.pp_summary findings
      end
      else if not (Finding.is_clean findings) then begin
        Fmt.pr "== %s ==@." bench.Sdiq_workloads.Bench.name;
        List.iter
          (fun f ->
            if f.Finding.severity = Finding.Error then
              Fmt.pr "%a@." Finding.pp f)
          findings
      end)
    (Sdiq_workloads.Suite.all ());
  if !total_errors > 0 then begin
    Fmt.pr "tighten-audit: %d errors@." !total_errors;
    exit 1
  end
  else Fmt.pr "tighten-audit: clean@."

let () =
  let doc =
    "audit the tightened annotations of every benchmark and certify the \
     delivered binaries"
  in
  Cli.eval cli ~doc Term.(const run $ quiet_arg)
