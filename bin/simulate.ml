(* sdiq-simulate: run one benchmark under one technique and print the
   statistics and (for non-baseline techniques) the savings report.

     dune exec bin/simulate.exe -- --bench mcf --technique noop
     dune exec bin/simulate.exe -- --bench gzip --technique extension \
       --budget 200000 --verbose *)

open Cmdliner

let technique_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Sdiq_harness.Technique.of_string s)
  in
  Arg.conv (parse, fun ppf t -> Fmt.string ppf (Sdiq_harness.Technique.name t))

let cli = Cli.tool "simulate"

let bench_arg =
  let doc =
    "Benchmark to run: "
    ^ String.concat ", " (Sdiq_workloads.Suite.names ())
  in
  Arg.(value & opt string "gzip" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let technique_arg =
  let doc =
    "Technique: "
    ^ String.concat ", "
        (List.map Sdiq_harness.Technique.name Sdiq_harness.Technique.extended)
    ^ "."
  in
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
    "Write a metrics dump of the run to $(docv). The extension picks the \
     format: $(b,.om) or $(b,.prom) renders the region profiler's \
     streaming metrics registry as an OpenMetrics text exposition \
     (promtool-checkable); anything else writes the JSON dump \
     (region-attribution profile). Detailed runs only: rejected with \
     $(b,--sample)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_spans_arg =
  let doc =
    "Write the run's host-side span trace to $(docv) as Chrome \
     trace-event JSON (load it in Perfetto or chrome://tracing): one \
     span per simulation (the technique's run and, for a non-baseline \
     technique, the baseline it is compared with), plus the sampler's \
     phase spans with $(b,--sample). Works for detailed and \
     $(b,--sample) runs; spans observe only the host, so traced \
     statistics are identical to untraced ones."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE" ~doc)

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
     $(b,--metrics)) are rejected, not ignored; with \
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

(* The one way this tool builds a machine: the technique's binary (or
   [?prog], an already prepared one), with the invariant checker on its
   bus under --check. *)
let machine ~sched ~check ?prog bench tech =
  let p = Sdiq_harness.Technique.build ~sched ?prog tech bench in
  if check then ignore (Sdiq_check.Checker.attach p : Sdiq_check.Checker.t);
  p

(* One simulation, in the span and with the attrs the campaign runner
   gives a pair; a checker violation is reported and exits 2. *)
let simulate span bench tech f =
  try
    Sdiq_util.Spanlog.with_span span
      ~attrs:
        [
          ("bench", bench.Sdiq_workloads.Bench.name);
          ("technique", Sdiq_harness.Technique.name tech);
        ]
      f
  with Sdiq_check.Checker.Invariant_violation v ->
    Fmt.epr "%a@." Sdiq_check.Checker.pp_violation v;
    exit 2

(* A sampled run of one pair: whole program, SMARTS regime, estimates
   with confidence intervals. *)
let run_sampled bench technique ~sched ~check ~config =
  let r =
    simulate "sim.sampled_pair" bench technique (fun () ->
        Sdiq_harness.Sampling.sample ~config
          (machine ~sched ~check bench technique))
  in
  if check then
    Fmt.pr "(invariant checker: every detailed cycle audited)@.";
  Fmt.pr "%s / %s:@.%a@." bench.Sdiq_workloads.Bench.name
    (Sdiq_harness.Technique.name technique)
    Sdiq_harness.Sampling.pp r

let print_annotations (bench : Sdiq_workloads.Bench.t) =
  let anns = Sdiq_core.Procedure.analyze_program bench.Sdiq_workloads.Bench.prog in
  Fmt.pr "annotations (%d):@." (List.length anns);
  List.iter
    (fun (a : Sdiq_core.Procedure.annotation) ->
      Fmt.pr "  addr %4d -> %2d entries%s@." a.Sdiq_core.Procedure.addr
        a.Sdiq_core.Procedure.value
        (match a.Sdiq_core.Procedure.loop_span with
        | Some (lo, hi) -> Fmt.str " (loop %d..%d)" lo hi
        | None -> ""))
    anns

(* The metrics dump of a run of [cycles] cycles: the region profile as
   JSON, or with an .om/.prom extension the profiler's streaming registry
   as an OpenMetrics text exposition. *)
let write_metrics bench technique ~budget ~cycles prof (file, oc) =
  if Filename.check_suffix file ".om" || Filename.check_suffix file ".prom"
  then
    output_string oc
      (Sdiq_obs.Metrics.to_openmetrics (Sdiq_obs.Profiler.metrics prof))
  else begin
    Printf.fprintf oc {|{"bench":"%s","technique":"%s","budget":%d,"profile":%s}|}
      bench.Sdiq_workloads.Bench.name
      (Sdiq_harness.Technique.name technique)
      budget
      (Sdiq_obs.Profiler.to_json prof);
    output_char oc '\n'
  end;
  close_out oc;
  Fmt.pr "metrics: %s (%d regions over %d cycles)@." file
    (Sdiq_obs.Region.count (Sdiq_obs.Profiler.map prof))
    cycles

(* A detailed run of one pair to the budget. Every requested observer
   rides the technique's own machine: the event counts (-v), the
   timeline sampler, the JSONL trace and the region profiler, which
   needs the machine to run its map's binary. A baseline machine runs
   only for the savings line. *)
let run_detailed bench technique ~sched ~check ~budget ~verbose ~timeline
    ~trace ~metrics =
  let name = bench.Sdiq_workloads.Bench.name in
  if verbose then print_annotations bench;
  let counts = Sdiq_events.Counts.create () in
  let stats, samples, prof =
    simulate "sim.pair" bench technique (fun () ->
        (* --metrics: the metrics file with the region map of the
           technique's binary, which the machine then loads *)
        let mapped =
          Option.map
            (fun out ->
              ( out,
                Sdiq_obs.Region.build
                  (Sdiq_harness.Technique.recipe technique)
                  bench.Sdiq_workloads.Bench.prog ))
            metrics
        in
        let prog =
          Option.map (fun (_, map) -> Sdiq_obs.Region.running_prog map) mapped
        in
        let p = machine ~sched ~check ?prog bench technique in
        if verbose then
          Sdiq_cpu.Pipeline.subscribe ~name:"event-counts" p
            (Sdiq_events.Counts.sink counts);
        let samples =
          if timeline then Some (Sdiq_harness.Timeline.attach p) else None
        in
        Option.iter
          (fun (_, oc) ->
            Sdiq_cpu.Pipeline.subscribe ~name:"jsonl-trace" p
              (Sdiq_events.Trace.sink oc))
          trace;
        let prof =
          Option.map
            (fun (out, map) -> (out, Sdiq_obs.Profiler.attach map p))
            mapped
        in
        (Sdiq_cpu.Pipeline.run ~max_insns:budget p, samples, prof))
  in
  if check then Fmt.pr "(invariant checker: every cycle audited)@.";
  Fmt.pr "%s / %s (policy %s):@.%a@." name
    (Sdiq_harness.Technique.name technique)
    (Sdiq_cpu.Sched.name sched) Sdiq_cpu.Stats.pp stats;
  if technique <> Sdiq_harness.Technique.Baseline then begin
    let base =
      simulate "sim.pair" bench Sdiq_harness.Technique.Baseline (fun () ->
          Sdiq_cpu.Pipeline.run ~max_insns:budget
            (machine ~sched ~check bench Sdiq_harness.Technique.Baseline))
    in
    Fmt.pr "vs baseline: %a@." Sdiq_power.Report.pp
      (Sdiq_power.Report.compute ~cfg:Sdiq_cpu.Config.default ~base stats)
  end;
  if verbose then begin
    Fmt.pr "@.IQ energy breakdown (technique view):@.%a" Sdiq_power.Breakdown.pp
      (Sdiq_power.Breakdown.iq stats);
    Fmt.pr "@.int RF energy breakdown:@.%a" Sdiq_power.Breakdown.pp
      (Sdiq_power.Breakdown.int_rf stats);
    Fmt.pr "@.@.event mix:@.%a@." Sdiq_events.Counts.pp counts
  end;
  Option.iter (fun t -> print_string (Sdiq_harness.Timeline.to_csv t)) samples;
  Option.iter
    (fun (file, oc) ->
      close_out oc;
      Fmt.pr "trace: %s (%d cycles, %d committed)@." file
        stats.Sdiq_cpu.Stats.cycles stats.Sdiq_cpu.Stats.committed)
    trace;
  Option.iter
    (fun (out, prof) ->
      write_metrics bench technique ~budget ~cycles:stats.Sdiq_cpu.Stats.cycles
        prof out)
    prof

(* Flag interactions are validated up front: a combination that would
   silently drop one of the flags is an error, not a guess. *)
let validate_flags ~budget ~verbose ~timeline ~trace ~metrics ~sample ~scaled
    ~ff ~warmup ~window =
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
      budget
  end;
  Cli.errors cli (List.rev !errors)

let run bench_name technique budget verbose timeline trace metrics check
    sample scaled ff warmup window policy trace_spans =
  validate_flags ~budget ~verbose ~timeline ~trace ~metrics ~sample ~scaled
    ~ff ~warmup ~window;
  let sched =
    Option.value (Cli.policy cli policy) ~default:Sdiq_cpu.Sched.default
  in
  let bench =
    Cli.bench cli
      ~suite:
        (if scaled then Sdiq_workloads.Suite.scaled
         else Sdiq_workloads.Suite.all)
      bench_name
  in
  Cli.distinct_outputs cli
    [ ("trace", trace); ("metrics", metrics); ("trace-spans", trace_spans) ];
  let trace = Cli.output cli "trace" trace in
  let metrics = Cli.output cli "metrics" metrics in
  let write_spans = Cli.trace_spans cli trace_spans in
  let budget = Option.value budget ~default:100_000 in
  if sample then begin
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
  end
  else
    run_detailed bench technique ~sched ~check ~budget ~verbose ~timeline
      ~trace ~metrics;
  write_spans ()

let () =
  let doc = "simulate one benchmark under one IQ-resizing technique" in
  Cli.eval cli ~doc
    Term.(
      const run $ bench_arg $ technique_arg $ budget_arg $ verbose_arg
      $ timeline_arg $ trace_arg $ metrics_arg $ check_arg
      $ sample_arg $ scaled_arg $ ff_arg $ warmup_arg $ window_arg
      $ policy_arg $ trace_spans_arg)
