(* Per-layer metrics of one traced campaign, from its spans. A span's
   self time is its duration minus the time its child spans cover;
   shares divide by the domain time of the campaign (the caller's
   "campaign" span plus each helper domain's root "pool.worker" span),
   so on two domains they add up to 1 across layers, not 2. *)

module Span = Sdiq_util.Spanlog
module Stats = Sdiq_cpu.Stats
module Summary = Sdiq_perf.Summary

let seconds (s : Span.span) =
  Int64.to_float (Int64.sub s.Span.stop_ns s.Span.start_ns) /. 1e9

let ratio a b = if b > 0. then a /. b else 0.

let of_trace (r : Span.result) (o : Workloads.outcome) =
  let spans = r.Span.spans in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.span) ->
      if s.Span.parent >= 0 then
        Hashtbl.replace covered s.Span.parent
          (seconds s
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.Span.parent)))
    spans;
  let self (s : Span.span) =
    seconds s -. Option.value ~default:0. (Hashtbl.find_opt covered s.Span.id)
  in
  let sum ?(where = fun _ -> true) name f =
    List.fold_left
      (fun acc (s : Span.span) ->
        if s.Span.name = name && where s then acc +. f s else acc)
      0. spans
  in
  let named name = List.filter (fun (s : Span.span) -> s.Span.name = name) spans in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name r.Span.counters))
  in
  let domain_s =
    List.fold_left
      (fun acc (s : Span.span) -> if s.Span.parent < 0 then acc +. seconds s else acc)
      0. spans
  in
  let share x = ratio x domain_s in
  let mips insns s = ratio (float_of_int insns) s /. 1e6 in
  (* pool: one map_array call per traced campaign, so one "pool.worker"
     span per participating domain *)
  let workers = named "pool.worker" in
  let width = float_of_int (List.length workers) in
  let worker_stops =
    List.map (fun (s : Span.span) -> Int64.to_float s.Span.stop_ns /. 1e9) workers
  in
  let tail_s =
    match worker_stops with
    | [] -> 0.
    | x :: rest ->
      List.fold_left Float.max x rest -. List.fold_left Float.min x rest
  in
  let pair_s = Array.of_list (List.map seconds (named "runner.pair")) in
  let pct p = if pair_s = [||] then 0. else Summary.percentile pair_s p in
  let tail_pct = Summary.tail_percentile (Array.length pair_s) in
  (* prepare: a repeat of a (source program, technique) is wasted work *)
  let prepares = named "technique.prepare" in
  let distinct =
    List.sort_uniq compare (List.map (fun (s : Span.span) -> s.Span.attrs) prepares)
  in
  let prepare_s = sum "technique.prepare" self in
  let create_s = sum "pipeline.create" self in
  let run_s = sum "pipeline.run" self in
  let d = o.Workloads.detailed in
  let ff_s = sum "sample.ff" seconds in
  let detailed_s = sum "sample.warmup" seconds +. sum "sample.window" seconds in
  let audit_s = sum "analysis.audit" self in
  let init_s = sum "bench.init" self in
  let named_self =
    List.fold_left
      (fun acc (s : Span.span) -> if s.Span.name = "campaign" then acc else acc +. self s)
      0. spans
  in
  [
    ("workloads.init.s", init_s);
    ("workloads.init.share", share init_s);
    ( "pool.busy_frac",
      ratio (sum "pool.task" seconds) (sum "pool.map_array" seconds *. width) );
    ("pool.steal_frac", ratio (counter "pool.steal") (counter "pool.claim" +. counter "pool.steal"));
    ("pool.tail_s", tail_s);
    ("runner.pair_s.p50", pct 50.);
    ("runner.pair_s.tail", pct tail_pct);
    ("runner.pair_s.tail_pct", tail_pct);
    ("runner.pair_s.max", pct 100.);
    ("prepare.calls", float_of_int (List.length prepares));
    ("prepare.s", prepare_s);
    ("prepare.share", share prepare_s);
    ( "prepare.dup_frac",
      1. -. ratio (float_of_int (List.length distinct)) (float_of_int (List.length prepares))
      |> Float.max 0. );
    ("pipeline.create.s", create_s);
    ("pipeline.create.share", share create_s);
    ("pipeline.run.s", run_s);
    ("pipeline.run.share", share run_s);
    ("pipeline.run.mips", mips d.Stats.committed run_s);
    ("pipeline.run.ns_per_cycle", ratio (run_s *. 1e9) (float_of_int d.Stats.cycles));
    ("pipeline.run.wp_frac", ratio (float_of_int d.Stats.wp_fetched) (float_of_int d.Stats.fetched));
    ( "pipeline.run.scan_per_select",
      ratio (float_of_int d.Stats.iq_scan_entries) (float_of_int d.Stats.iq_selects) );
    ("sampling.self_s", sum "sampling.sample" self);
    ("sampling.ff.s", ff_s);
    ("sampling.ff.share", share ff_s);
    ( "sampling.ff.mips",
      mips (o.Workloads.sampled_insns - o.Workloads.sampled_detailed_insns) ff_s );
    ("sampling.detailed.s", detailed_s);
    ("sampling.detailed.mips", mips o.Workloads.sampled_detailed_insns detailed_s);
    ( "sampling.detailed_frac",
      ratio (float_of_int o.Workloads.sampled_measured_insns)
        (float_of_int o.Workloads.sampled_insns) );
    ("analysis.audit.s", audit_s);
    ("analysis.audit.share", share audit_s);
    ( "analysis.tighten.s",
      sum "technique.prepare" self
        ~where:(fun s -> List.assoc_opt "technique" s.Span.attrs = Some "tightened") );
    ("analysis.certificate.s", sum "analysis.certificate" self);
    ("analysis.errors", float_of_int o.Workloads.analysis_errors);
    ("trace.coverage_frac", share named_self);
  ]
