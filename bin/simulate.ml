(* sdiq-simulate: run one benchmark under one technique and print the
   statistics and (for non-baseline techniques) the savings report.

     dune exec bin/simulate.exe -- --bench mcf --technique noop
     dune exec bin/simulate.exe -- --bench gzip --technique extension \
       --budget 200000 --verbose *)

open Cmdliner

let technique_of_string = function
  | "baseline" -> Ok Sdiq_harness.Technique.Baseline
  | "noop" -> Ok Sdiq_harness.Technique.Noop
  | "extension" -> Ok Sdiq_harness.Technique.Extension
  | "improved" -> Ok Sdiq_harness.Technique.Improved
  | "abella" -> Ok Sdiq_harness.Technique.Abella
  | "tightened" -> Ok Sdiq_harness.Technique.Tightened
  | s -> Error (`Msg ("unknown technique: " ^ s))

let technique_conv =
  Arg.conv
    ( technique_of_string,
      fun ppf t -> Fmt.string ppf (Sdiq_harness.Technique.name t) )

let bench_arg =
  let doc =
    "Benchmark to run: "
    ^ String.concat ", " (Sdiq_workloads.Suite.names ())
  in
  Arg.(value & opt string "gzip" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let technique_arg =
  let doc = "Technique: baseline, noop, extension, improved, abella." in
  Arg.(
    value
    & opt technique_conv Sdiq_harness.Technique.Baseline
    & info [ "t"; "technique" ] ~docv:"TECH" ~doc)

let budget_arg =
  let doc =
    "Committed-instruction budget (default 100000). Detailed runs only: \
     rejected with $(b,--sample), which always runs the whole program."
  in
  Arg.(value & opt (some int) None & info [ "n"; "budget" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc =
    "Also print the annotations and energy breakdowns. Detailed runs \
     only: rejected with $(b,--sample) (sampled statistics are window \
     estimates, not exact breakdowns)."
  in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let timeline_arg =
  let doc =
    "Emit a per-interval CSV timeline of the run to stdout. Detailed \
     runs only: rejected with $(b,--sample)."
  in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let trace_arg =
  let doc =
    "Write a JSONL event trace of the run to $(docv): one JSON object per \
     pipeline event (fetch, dispatch, wakeup, issue, commit, cycle_end, \
     ...), one per line, each tagged with its cycle. Audit it with \
     `lint.exe --trace`; query it with jq (see README). Detailed runs \
     only: rejected with $(b,--sample)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics dump of a dedicated profiled run to $(docv). The \
     extension picks the format: $(b,.om) or $(b,.prom) renders the \
     streaming metrics registry plus the host self-profile as an \
     OpenMetrics text exposition (promtool-checkable); anything else \
     writes the JSON dump (region-attribution profile, metrics registry, \
     host self-profile). Detailed runs only: rejected with $(b,--sample)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_spans_arg =
  let doc =
    "Write the run's host-side span trace to $(docv) as Chrome \
     trace-event JSON (load it in Perfetto or chrome://tracing): \
     campaign/pair/pool spans with one track per domain, plus memo and \
     pool counters. Works for detailed and $(b,--sample) runs; spans \
     observe only the host, so traced statistics are identical to \
     untraced ones."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Domains for the runner's campaign pool (default: the hardware's \
     recommended domain count); must be at least 1. Detailed runs only: \
     rejected with $(b,--sample) (a sampled pair runs on one domain)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let check_arg =
  let doc =
    "Audit every cycle with the invariant checker (dispatch window, \
     gated banks, power integrals, ROB order, register conservation, \
     wrong-path confinement, IQ/ROB/LSQ linkage, wakeup counts); aborts \
     with a structured report on the first violation. With \
     $(b,--sample) the checker audits every $(i,detailed) cycle — \
     warmup and measured windows — but cannot see fast-forwarded \
     stretches, which are functional-only."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let sample_arg =
  let doc =
    "Run the whole program under SMARTS sampling instead of a detailed \
     budget: fast-forward between detailed windows, report estimates \
     with 95% confidence intervals (see DESIGN.md §13). Exact-run flags \
     ($(b,--budget), $(b,--verbose), $(b,--timeline), $(b,--trace), \
     $(b,--metrics), $(b,--domains)) are rejected, not ignored; with \
     $(b,--check) the invariant checker audits every detailed cycle of \
     every window. Combines with $(b,--policy)."
  in
  Arg.(value & flag & info [ "sample" ] ~doc)

let policy_arg =
  let doc =
    "Select/wakeup scheduler policy: oldest_first (the paper's fixed \
     scheduler, default), nskip:N (bound the select scan to N slots \
     after head), or load_delay (suppress the wakeup CAM ports of \
     predicted-ready operands). Works with both detailed and \
     $(b,--sample) runs; unknown names are rejected."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)

let scaled_arg =
  let doc =
    "Use the scaled benchmark instance (at least ten million oracle \
     instructions) instead of the default size. Requires $(b,--sample): \
     a detailed run of a scaled instance is not a supported \
     configuration."
  in
  Arg.(value & flag & info [ "scaled" ] ~doc)

let ff_arg =
  let doc =
    "Sampling: fast-forwarded instructions per period (default 46000). \
     Requires $(b,--sample)."
  in
  Arg.(value & opt (some int) None & info [ "ff" ] ~docv:"N" ~doc)

let warmup_arg =
  let doc =
    "Sampling: detailed unmeasured warmup instructions per period \
     (default 2000). Requires $(b,--sample); see DESIGN.md §13 for the \
     floor below which warmup bias is measurable."
  in
  Arg.(value & opt (some int) None & info [ "warmup" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Sampling: detailed measured instructions per period (default 2000, \
     must be positive). Requires $(b,--sample)."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N" ~doc)

(* An output file that cannot be opened is a usage error naming its flag
   (exit 1), not an uncaught [Sys_error]. *)
let open_out_flag flag path =
  try open_out path
  with Sys_error e ->
    Fmt.epr "sdiq-simulate: --%s: %s@." flag e;
    exit 1

(* A dedicated traced run: the runner's build, with the JSONL trace sink
   on the bus. *)
let write_trace bench technique ~sched ~budget (file, oc) =
  let p = Sdiq_harness.Technique.build ~sched technique bench in
  Sdiq_cpu.Pipeline.subscribe ~name:"jsonl-trace" p
    (Sdiq_events.Trace.sink oc);
  let stats = Sdiq_cpu.Pipeline.run ~max_insns:budget p in
  close_out oc;
  Fmt.pr "trace: %s (%d cycles, %d committed)@." file
    stats.Sdiq_cpu.Stats.cycles stats.Sdiq_cpu.Stats.committed

(* A dedicated profiled run: the region-attribution profiler and the
   host self-profiler ride the bus of one fresh simulation. *)
let write_metrics bench technique ~sched ~budget (file, oc) =
  let p = Sdiq_harness.Technique.build ~sched technique bench in
  let map =
    Sdiq_obs.Region.build
      (Sdiq_harness.Technique.delivery technique)
      bench.Sdiq_workloads.Bench.prog
  in
  let prof = Sdiq_obs.Profiler.attach map p in
  let host = Sdiq_obs.Hostprof.attach p in
  let stats = Sdiq_cpu.Pipeline.run ~max_insns:budget p in
  if Filename.check_suffix file ".om" || Filename.check_suffix file ".prom"
  then
    (* OpenMetrics exposition: the profiler's streaming registry merged
       with the host self-profile's gauges, one scrape-ready document. *)
    output_string oc
      (Sdiq_obs.Metrics.to_openmetrics
         (Sdiq_obs.Metrics.merge
            (Sdiq_obs.Profiler.metrics prof)
            (Sdiq_obs.Hostprof.to_metrics host)))
  else begin
    Printf.fprintf oc
      {|{"bench":"%s","technique":"%s","budget":%d,"profile":%s,"hostprof":%s}|}
      bench.Sdiq_workloads.Bench.name
      (Sdiq_harness.Technique.name technique)
      budget
      (Sdiq_obs.Profiler.to_json prof)
      (Sdiq_obs.Hostprof.to_json host);
    output_char oc '\n'
  end;
  close_out oc;
  Fmt.pr "metrics: %s (%d regions over %d cycles)@." file
    (Sdiq_obs.Region.count map) stats.Sdiq_cpu.Stats.cycles

(* A dedicated counting run for the verbose event-mix table. *)
let event_mix bench technique ~sched ~budget =
  let p = Sdiq_harness.Technique.build ~sched technique bench in
  let counts = Sdiq_events.Counts.create () in
  Sdiq_cpu.Pipeline.subscribe ~name:"event-counts" p
    (Sdiq_events.Counts.sink counts);
  let (_ : Sdiq_cpu.Stats.t) = Sdiq_cpu.Pipeline.run ~max_insns:budget p in
  counts

(* A sampled run of one pair: whole program, SMARTS regime, estimates
   with confidence intervals. *)
let run_sampled bench technique ~sched ~check ~config =
  let checker = if check then Some Sdiq_check.Checker.fresh_hook else None in
  let runner =
    Sdiq_harness.Runner.create ~benches:[ bench ] ~sched ?checker
      ~sample_config:config ()
  in
  let name = bench.Sdiq_workloads.Bench.name in
  let r =
    try Sdiq_harness.Runner.run_sampled runner name technique
    with Sdiq_check.Checker.Invariant_violation v ->
      Fmt.epr "%a@." Sdiq_check.Checker.pp_violation v;
      exit 2
  in
  if check then
    Fmt.pr "(invariant checker: every detailed cycle audited)@.";
  Fmt.pr "%s / %s:@.%a@." name
    (Sdiq_harness.Technique.name technique)
    Sdiq_harness.Sampling.pp r

(* Flag interactions are validated up front: a combination that would
   silently drop one of the flags is an error, not a guess. *)
let validate_flags ~budget ~verbose ~timeline ~trace ~metrics ~domains
    ~sample ~scaled ~ff ~warmup ~window =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  if sample then begin
    let reject name present =
      if present then
        err "--%s is a detailed-run option; a sampled run (--sample) \
             would ignore it" name
    in
    reject "budget" (budget <> None);
    reject "verbose" verbose;
    reject "timeline" timeline;
    reject "trace" (trace <> None);
    reject "metrics" (metrics <> None);
    reject "domains" (domains <> None);
    Option.iter
      (fun n -> if n < 0 then err "--ff must be non-negative (got %d)" n)
      ff;
    Option.iter
      (fun n -> if n < 0 then err "--warmup must be non-negative (got %d)" n)
      warmup;
    Option.iter
      (fun n -> if n <= 0 then err "--window must be positive (got %d)" n)
      window
  end
  else begin
    let require name present =
      if present then
        err "--%s only shapes a sampled run; pass --sample with it" name
    in
    require "scaled" scaled;
    require "ff" (ff <> None);
    require "warmup" (warmup <> None);
    require "window" (window <> None);
    Option.iter
      (fun n -> if n <= 0 then err "--budget must be positive (got %d)" n)
      budget;
    Option.iter
      (fun n -> if n < 1 then err "--domains must be at least 1 (got %d)" n)
      domains
  end;
  match List.rev !errors with
  | [] -> ()
  | msgs ->
    List.iter (fun m -> Fmt.epr "sdiq-simulate: %s@." m) msgs;
    exit 1

let run bench_name technique budget verbose timeline trace metrics domains
    check sample scaled ff warmup window policy trace_spans =
  validate_flags ~budget ~verbose ~timeline ~trace ~metrics ~domains ~sample
    ~scaled ~ff ~warmup ~window;
  if trace_spans <> None then Sdiq_obs.Telemetry.start ();
  let write_spans () =
    Option.iter
      (fun file ->
        match Sdiq_obs.Telemetry.drain () with
        | None -> ()
        | Some r ->
          Sdiq_obs.Telemetry.write_chrome file r;
          Fmt.pr "trace-spans: %s (%d spans, %d counters)@." file
            (List.length r.Sdiq_obs.Telemetry.Span.spans)
            (List.length r.Sdiq_obs.Telemetry.Span.counters))
      trace_spans
  in
  (* Like an unknown benchmark or experiment id: a typo'd policy must
     fail loudly before anything simulates. *)
  let sched =
    match policy with
    | None -> Sdiq_cpu.Sched.default
    | Some s -> (
      match Sdiq_cpu.Sched.of_string s with
      | Ok sched -> sched
      | Error msg ->
        Fmt.epr "sdiq-simulate: %s@." msg;
        exit 1)
  in
  let budget = Option.value budget ~default:100_000 in
  let suite =
    if scaled then Sdiq_workloads.Suite.scaled ()
    else Sdiq_workloads.Suite.all ()
  in
  (match
     List.find_opt
       (fun (b : Sdiq_workloads.Bench.t) ->
         b.Sdiq_workloads.Bench.name = bench_name)
       suite
   with
  | None ->
    Fmt.epr "unknown benchmark %S; available: %s@." bench_name
      (String.concat ", " (Sdiq_workloads.Suite.names ()));
    exit 1
  | Some bench when sample ->
    let dflt = Sdiq_harness.Sampling.default in
    run_sampled bench technique ~sched ~check
      ~config:
        {
          Sdiq_harness.Sampling.ff_len =
            Option.value ff ~default:dflt.Sdiq_harness.Sampling.ff_len;
          warmup_len =
            Option.value warmup ~default:dflt.Sdiq_harness.Sampling.warmup_len;
          window_len =
            Option.value window ~default:dflt.Sdiq_harness.Sampling.window_len;
        }
  | Some bench ->
    (* Opened before the main run, so an unwritable path fails at once. *)
    let output flag = Option.map (fun f -> (f, open_out_flag flag f)) in
    let trace = output "trace" trace and metrics = output "metrics" metrics in
    let checker =
      if check then Some Sdiq_check.Checker.fresh_hook else None
    in
    let runner =
      Sdiq_harness.Runner.create ~budget ~benches:[ bench ] ~sched ?domains
        ?checker ()
    in
    if verbose then begin
      let anns =
        Sdiq_core.Procedure.analyze_program bench.Sdiq_workloads.Bench.prog
      in
      Fmt.pr "annotations (%d):@." (List.length anns);
      List.iter
        (fun (a : Sdiq_core.Procedure.annotation) ->
          Fmt.pr "  addr %4d -> %2d entries%s@." a.Sdiq_core.Procedure.addr
            a.Sdiq_core.Procedure.value
            (match a.Sdiq_core.Procedure.loop_span with
            | Some (lo, hi) -> Fmt.str " (loop %d..%d)" lo hi
            | None -> ""))
        anns
    end;
    let stats =
      try Sdiq_harness.Runner.run runner bench_name technique
      with Sdiq_check.Checker.Invariant_violation v ->
        Fmt.epr "%a@." Sdiq_check.Checker.pp_violation v;
        exit 2
    in
    if check then Fmt.pr "(invariant checker: every cycle audited)@.";
    Fmt.pr "%s / %s (policy %s):@.%a@." bench_name
      (Sdiq_harness.Technique.name technique)
      (Sdiq_cpu.Sched.name sched) Sdiq_cpu.Stats.pp stats;
    if technique <> Sdiq_harness.Technique.Baseline then begin
      let savings = Sdiq_harness.Runner.savings runner bench_name technique in
      Fmt.pr "vs baseline: %a@." Sdiq_power.Report.pp savings
    end;
    if verbose then begin
      Fmt.pr "@.IQ energy breakdown (technique view):@.%a" Sdiq_power.Breakdown.pp
        (Sdiq_power.Breakdown.iq stats);
      Fmt.pr "@.int RF energy breakdown:@.%a" Sdiq_power.Breakdown.pp
        (Sdiq_power.Breakdown.int_rf stats);
      Fmt.pr "@.@.event mix:@.%a@." Sdiq_events.Counts.pp
        (event_mix bench technique ~sched ~budget)
    end;
    if timeline then begin
      let t =
        Sdiq_harness.Timeline.record ~sched ~max_insns:budget bench technique
      in
      print_string (Sdiq_harness.Timeline.to_csv t)
    end;
    Option.iter (write_trace bench technique ~sched ~budget) trace;
    Option.iter (write_metrics bench technique ~sched ~budget) metrics);
  write_spans ()

let cmd =
  let doc = "simulate one benchmark under one IQ-resizing technique" in
  Cmd.v
    (Cmd.info "sdiq-simulate" ~doc)
    Term.(
      const run $ bench_arg $ technique_arg $ budget_arg $ verbose_arg
      $ timeline_arg $ trace_arg $ metrics_arg $ domains_arg $ check_arg
      $ sample_arg $ scaled_arg $ ff_arg $ warmup_arg $ window_arg
      $ policy_arg $ trace_spans_arg)

let () = exit (Cmd.eval cmd)
