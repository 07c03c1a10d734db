(* The event bus (lib/events): delivery semantics, the no-sink fast
   path, and the central refactor invariant — folding the event stream
   through [Stats.absorb] reproduces the pipeline's own statistics
   exactly, on every benchmark, technique and random program.

   The golden event-count rows pin the full per-kind count table for
   two contrasting benchmarks under every technique; regenerate them
   after an INTENTIONAL event-vocabulary change by flipping
   [print_golden_rows] below and pasting the output. *)

module Technique = Sdiq_harness.Technique
module Pipeline = Sdiq_cpu.Pipeline
module Stats = Sdiq_cpu.Stats
module Event = Sdiq_events.Event
module Bus = Sdiq_events.Bus
module Counts = Sdiq_events.Counts
module Region = Sdiq_obs.Region
module Profiler = Sdiq_obs.Profiler

let kind_index name =
  let rec go i =
    if i >= Event.num_kinds then
      Alcotest.failf "no event kind named %S" name
    else if Event.kind_name_of_index i = name then i
    else go (i + 1)
  in
  go 0

(* Run [bench] under [tech] with a fresh pipeline ([?prog]: an already
   prepared binary); [attach] is given the pipeline before the run for
   sink registration. *)
let run_with ?(budget = 2_000) ?sched ?prog ~attach bench tech =
  let p = Technique.build ?sched ?prog tech bench in
  attach p;
  Pipeline.run ~max_insns:budget p

let counts_of bench tech =
  let c = Counts.create () in
  let stats =
    run_with bench tech ~attach:(fun p ->
        Pipeline.subscribe ~name:"counts" p (Counts.sink c))
  in
  (c, stats)

let gzip () = Sdiq_workloads.W_gzip.build ~outer:2_000 ()
let mcf () = Sdiq_workloads.W_mcf.build ~outer:2_000 ()

(* --- bus semantics ------------------------------------------------------ *)

let test_bus_inactive_until_subscribed () =
  let b = Bus.create () in
  Alcotest.(check bool) "fresh bus inactive" false (Bus.active b);
  Alcotest.(check int) "no sinks" 0 (Bus.count b);
  Bus.subscribe ~name:"a" b (fun _ -> ());
  Alcotest.(check bool) "active after subscribe" true (Bus.active b);
  Alcotest.(check int) "one sink" 1 (Bus.count b)

let test_bus_delivery_order () =
  let b = Bus.create () in
  let order = ref [] in
  Bus.subscribe ~name:"first" b (fun _ -> order := "first" :: !order);
  Bus.subscribe ~name:"second" b (fun _ -> order := "second" :: !order);
  Bus.subscribe ~name:"third" b (fun _ -> order := "third" :: !order);
  Bus.emit b (Event.Select { rob_idx = 0; iq_slot = 0 });
  Alcotest.(check (list string))
    "registration order is delivery order"
    [ "first"; "second"; "third" ]
    (List.rev !order);
  Alcotest.(check (list string))
    "names in delivery order"
    [ "first"; "second"; "third" ]
    (Bus.names b)

let test_bus_exception_propagates () =
  let b = Bus.create () in
  Bus.subscribe b (fun _ -> failwith "sink abort");
  Alcotest.check_raises "sink exception reaches the emitter"
    (Failure "sink abort") (fun () ->
      Bus.emit b (Event.Select { rob_idx = 0; iq_slot = 0 }))

let test_pipeline_bus_starts_empty () =
  let bench = gzip () in
  let p = Pipeline.create bench.Sdiq_workloads.Bench.prog in
  Alcotest.(check bool) "no-sink fast path by default" false
    (Bus.active (Pipeline.Debug.bus p))

(* --- the refactor invariant: sink fold == pipeline statistics ----------- *)

let test_sink_fold_matches_stats_all_techniques () =
  List.iter
    (fun bench ->
      List.iter
        (fun tech ->
          let folded = Stats.create () in
          let stats =
            run_with bench tech ~attach:(fun p ->
                Pipeline.subscribe ~name:"stats-fold" p (Stats.absorb folded))
          in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: folded stats == pipeline stats"
               bench.Sdiq_workloads.Bench.name (Technique.name tech))
            true
            (Stats.equal folded stats))
        Technique.all)
    [ gzip (); mcf () ]

(* simulate.exe's whole observer set on one machine: the invariant
   checker, event counts, a JSONL trace, the timeline sampler and the
   region profiler, whose machine runs the region map's binary. Returns
   the run's statistics with the observers. *)
let run_observed ?sched bench tech =
  let map = Region.build (Technique.recipe tech) bench.Sdiq_workloads.Bench.prog in
  let counts = Counts.create () in
  let observers = ref None in
  let stats =
    Out_channel.with_open_bin Filename.null (fun oc ->
        run_with ?sched ~prog:(Region.running_prog map) bench tech
          ~attach:(fun p ->
            ignore (Sdiq_check.Checker.attach p : Sdiq_check.Checker.t);
            Pipeline.subscribe ~name:"counts" p (Counts.sink counts);
            Pipeline.subscribe ~name:"jsonl-trace" p
              (Sdiq_events.Trace.sink oc);
            let timeline = Sdiq_harness.Timeline.attach p in
            observers := Some (timeline, Profiler.attach map p)))
  in
  let timeline, prof = Option.get !observers in
  (stats, counts, timeline, prof)

(* The dual-path pin: with no sink the pipeline's per-kind emitters
   call the [Stats] updaters directly (the fast path); with any sink
   attached every event goes through the bus and [Stats.absorb]. The
   two paths must produce identical statistics — integer for integer —
   on every benchmark, technique and scheduler policy: nskip:4 pins the
   bounded [Select_scan] entries, load_delay the suppressed wakeups.
   A third run carries every observer simulate.exe can put on one
   machine; it too must run the unobserved machine's run, and each
   observer must account for all of it. *)
let test_nosink_stats_equal_sink_stats () =
  List.iter
    (fun sched ->
      List.iter
        (fun bench ->
          List.iter
            (fun tech ->
              let nosink = run_with ~sched bench tech ~attach:(fun _ -> ()) in
              let sunk =
                run_with ~sched bench tech ~attach:(fun p ->
                    Pipeline.subscribe ~name:"null" p (fun _ -> ()))
              in
              Alcotest.(check bool)
                (Fmt.str "%s/%s/%s: no-sink stats == sink-attached stats"
                   bench.Sdiq_workloads.Bench.name (Technique.name tech)
                   (Sdiq_cpu.Sched.name sched))
                true
                (Stats.equal nosink sunk);
              let where what =
                Fmt.str "%s/%s/%s: %s" bench.Sdiq_workloads.Bench.name
                  (Technique.name tech) (Sdiq_cpu.Sched.name sched) what
              in
              let observed, counts, timeline, prof =
                run_observed ~sched bench tech
              in
              Alcotest.(check bool)
                (where "no-sink stats == fully observed stats")
                true
                (Stats.equal nosink observed);
              Alcotest.(check bool)
                (where "profiler total == observed stats")
                true
                (Stats.equal (Profiler.total_stats prof) observed);
              Alcotest.(check int)
                (where "counted commits == committed")
                observed.Stats.committed
                (Counts.get counts (kind_index "commit"));
              let last =
                List.hd (List.rev (Sdiq_harness.Timeline.samples timeline))
              in
              Alcotest.(check bool)
                (where "last timeline sample within one interval of the end")
                true
                (let gap =
                   observed.Stats.cycles - last.Sdiq_harness.Timeline.cycle
                 in
                 gap >= 0 && gap <= 200);
              if sched = Sdiq_cpu.Sched.load_delay then
                Alcotest.(check bool)
                  (Fmt.str "%s/%s: load_delay suppresses some wakeups"
                     bench.Sdiq_workloads.Bench.name (Technique.name tech))
                  true
                  (nosink.Stats.iq_wakeups_suppressed > 0))
            Technique.all)
        [ gzip (); mcf () ])
    Sdiq_cpu.Sched.[ oldest_first; nskip ~n:4; load_delay ]

(* --- quiet-cycle skipping ----------------------------------------------- *)

(* A run with no sink skips its quiet cycles in closed form (DESIGN.md
   §13.5); a null sink turns the skip off and steps every cycle. The
   stepped run is the reference: the two must agree integer for integer.
   The budget lets every abella run close at least three sensing windows,
   so the skip's stop before each window close is exercised. *)
let null_sink p = Pipeline.subscribe ~name:"null" p (fun _ -> ())

let test_quiet_skip_all_benchmarks () =
  List.iter
    (fun bench ->
      List.iter
        (fun tech ->
          let where =
            Fmt.str "%s/%s" bench.Sdiq_workloads.Bench.name
              (Technique.name tech)
          in
          let bare = run_with ~budget:16_000 bench tech ~attach:(fun _ -> ()) in
          let stepped = run_with ~budget:16_000 bench tech ~attach:null_sink in
          Alcotest.(check (list (pair string int)))
            (where ^ ": no-sink stats == null-sink stats")
            (Stats.to_fields stepped) (Stats.to_fields bare);
          match Technique.policy tech with
          | Sdiq_cpu.Policy.Abella a ->
            Alcotest.(check bool)
              (where ^ ": crosses three sensing windows")
              true
              (bare.Stats.cycles >= 3 * a.Sdiq_cpu.Policy.window)
          | _ -> ())
        Technique.[ Baseline; Noop; Abella ])
    (Sdiq_workloads.Suite.all ())

(* Sampled simulation drains the machine before every fast-forward, and
   [drain] skips too, capped at its deadline: the sampled result must
   not depend on whether a sink is attached. *)
let test_quiet_skip_sampling () =
  let config =
    { Sdiq_harness.Sampling.ff_len = 4_000; warmup_len = 500; window_len = 500 }
  in
  List.iter
    (fun bench ->
      let sample ~attach =
        let p = Technique.build Technique.Noop bench in
        attach p;
        Sdiq_harness.Sampling.sample ~config p
      in
      let bare = sample ~attach:(fun _ -> ()) in
      let stepped = sample ~attach:null_sink in
      let where what = bench.Sdiq_workloads.Bench.name ^ ": " ^ what in
      let module S = Sdiq_harness.Sampling in
      Alcotest.(check int) (where "instructions") stepped.S.total_insns
        bare.S.total_insns;
      Alcotest.(check int) (where "windows") stepped.S.windows bare.S.windows;
      Alcotest.(check bool) (where "several windows") true
        (bare.S.windows >= 3);
      Alcotest.(check bool) (where "window stats") true
        (Stats.equal stepped.S.window_stats bare.S.window_stats);
      List.iter
        (fun (what, (a : S.estimate), (b : S.estimate)) ->
          Alcotest.(check (float 0.)) (where what ^ " mean") a.S.mean b.S.mean;
          Alcotest.(check (float 0.)) (where what ^ " ci") a.S.ci_half
            b.S.ci_half;
          Alcotest.(check int) (where what ^ " n") a.S.n b.S.n)
        [
          ("ipc", stepped.S.ipc, bare.S.ipc);
          ("wakeups", stepped.S.wakeups_per_insn, bare.S.wakeups_per_insn);
          ("energy", stepped.S.energy_per_insn, bare.S.energy_per_insn);
        ])
    [ Sdiq_workloads.W_mcf.build ~outer:4_000 ();
      Sdiq_workloads.W_gzip.build ~outer:2_000 () ]

(* The skip never jumps past [max_cycles]: a run cut short raises
   [Simulation_limit] at the same cycle, with the same message, either
   way. Nor past [drain]'s deadline: a drain cut short stops at the same
   cycle with the same statistics. The limits fall inside mcf's long
   load waits. *)
let test_quiet_skip_cycle_limit () =
  let bench = mcf () in
  List.iter
    (fun max_cycles ->
      let drain ~attach =
        let p = Technique.build Technique.Noop bench in
        attach p;
        ignore (Pipeline.run ~max_insns:1_500 p : Stats.t);
        let outcome =
          match Pipeline.drain ~max_cycles p with
          | () -> "drained"
          | exception Pipeline.Simulation_limit msg -> msg
        in
        (outcome, Pipeline.Debug.cycle p, Stats.to_fields p.Pipeline.stats)
      in
      let ((outcome, _, _) as stepped) = drain ~attach:null_sink in
      Alcotest.(check bool)
        (Fmt.str "drain ~max_cycles:%d cuts mcf's drain short" max_cycles)
        true
        (String.starts_with ~prefix:"drain" outcome);
      Alcotest.(check (triple string int (list (pair string int))))
        (Fmt.str "drain ~max_cycles:%d: same outcome, cycle and stats"
           max_cycles)
        stepped
        (drain ~attach:(fun _ -> ())))
    [ 7; 40; 97 ];
  List.iter
    (fun max_cycles ->
      let limit ~attach =
        let p = Technique.build Technique.Noop bench in
        attach p;
        match Pipeline.run ~max_cycles p with
        | _ -> "finished"
        | exception Pipeline.Simulation_limit msg -> msg
      in
      let stepped = limit ~attach:null_sink in
      Alcotest.(check bool)
        (Fmt.str "max_cycles %d cuts mcf short" max_cycles)
        true
        (String.starts_with ~prefix:"no progress" stepped);
      Alcotest.(check string)
        (Fmt.str "max_cycles %d: same limit message" max_cycles)
        stepped
        (limit ~attach:(fun _ -> ())))
    [ 1_000; 2_345; 4_321; 7_777 ]

(* Back-to-back divides on the unpipelined divide units, behind a
   branch on a pseudo-random bit. When the branch mispredicts, the
   wrong-path divides issue, then squash with their units still busy (a
   unit is not released at a squash), so the correct path's ready
   divides wait for a unit release no completion marks. A narrow
   software window keeps dispatch throttled and fetch stalled meanwhile,
   so those waits are quiet: the skip must stop at each unit's release
   cycle. *)
let test_quiet_skip_divides () =
  let r = Sdiq_isa.Reg.int in
  let module Asm = Sdiq_isa.Asm in
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 200;
  Asm.li p (r 7) 3;
  Asm.li p (r 10) 1000;
  Asm.li p (r 20) 12345;
  Asm.li p (r 21) 1103515245;
  Asm.label p "loop";
  Asm.mul p (r 20) (r 20) (r 21);
  Asm.addi p (r 20) (r 20) 12345;
  Asm.shri p (r 22) (r 20) 3;
  Asm.andi p (r 22) (r 22) 1;
  Asm.beq p (r 22) Sdiq_isa.Reg.zero "skip";
  Asm.div p (r 3) (r 10) (r 7);
  Asm.div p (r 4) (r 10) (r 7);
  Asm.label p "skip";
  Asm.div p (r 11) (r 10) (r 7);
  Asm.div p (r 12) (r 10) (r 7);
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Sdiq_isa.Reg.zero "loop";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  List.iter
    (fun (name, policy) ->
      let run ~attach =
        let t = Pipeline.create ~policy:(policy ()) prog in
        attach t;
        Pipeline.run t
      in
      let stepped = run ~attach:null_sink in
      Alcotest.(check (list (pair string int)))
        (name ^ ": no-sink stats == null-sink stats")
        (Stats.to_fields stepped)
        (Stats.to_fields (run ~attach:(fun _ -> ())));
      Alcotest.(check bool) (name ^ ": some divides squashed") true
        (stepped.Stats.squashed > 0))
    Sdiq_cpu.Policy.
      [
        ("unlimited", fun () -> unlimited);
        ("software window 2", fun () -> software ~initial:2 ());
        ("software window 4", fun () -> software ~initial:4 ());
      ]

let prop_sink_fold_matches_stats =
  QCheck.Test.make ~count:12
    ~name:"event fold reproduces pipeline stats on random programs"
    Suite_properties.arbitrary_prog (fun desc ->
      let prog = Suite_properties.build_program desc in
      List.for_all
        (fun tech ->
          let prepared = Technique.prepare tech prog in
          let p =
            Pipeline.create ~policy:(Technique.policy tech) prepared
          in
          let folded = Stats.create () in
          Pipeline.subscribe ~name:"stats-fold" p (Stats.absorb folded);
          let stats = Pipeline.run ~max_cycles:3_000_000 p in
          Stats.equal folded stats)
        Technique.all)

(* --- golden event-count snapshot ---------------------------------------- *)

let golden_counts =
  [
    ("gzip", Technique.Baseline, "fetch=3607 annotation=0 dispatch=3039 dispatch_stall=819 wakeup=859 select=2607 issue=2607 writeback=2560 rf_read=2516 rf_write=2025 commit=2000 squash=37 cache_miss=94 resize=0 bank_gated=458 bank_ungated=466 cycle_end=1944 tlb_miss=28 select_scan=1691");
    ("gzip", Technique.Noop, "fetch=3610 annotation=65 dispatch=3038 dispatch_stall=929 wakeup=857 select=2585 issue=2585 writeback=2536 rf_read=2493 rf_write=2007 commit=2000 squash=37 cache_miss=96 resize=0 bank_gated=461 bank_ungated=470 cycle_end=2050 tlb_miss=27 select_scan=1765");
    ("gzip", Technique.Extension, "fetch=3573 annotation=247 dispatch=3013 dispatch_stall=895 wakeup=854 select=2581 issue=2581 writeback=2533 rf_read=2490 rf_write=2007 commit=2000 squash=37 cache_miss=94 resize=0 bank_gated=463 bank_ungated=471 cycle_end=1944 tlb_miss=28 select_scan=1691");
    ("gzip", Technique.Improved, "fetch=3573 annotation=247 dispatch=3013 dispatch_stall=895 wakeup=854 select=2581 issue=2581 writeback=2533 rf_read=2490 rf_write=2007 commit=2000 squash=37 cache_miss=94 resize=0 bank_gated=463 bank_ungated=471 cycle_end=1944 tlb_miss=28 select_scan=1691");
    ("gzip", Technique.Abella, "fetch=3601 annotation=0 dispatch=3021 dispatch_stall=880 wakeup=847 select=2605 issue=2605 writeback=2558 rf_read=2513 rf_write=2024 commit=2000 squash=37 cache_miss=94 resize=1 bank_gated=454 bank_ungated=462 cycle_end=1993 tlb_miss=28 select_scan=1739");
    ("mcf", Technique.Baseline, "fetch=2687 annotation=0 dispatch=2171 dispatch_stall=11070 wakeup=1139 select=2076 issue=2076 writeback=2070 rf_read=2072 rf_write=1584 commit=2000 squash=18 cache_miss=448 resize=0 bank_gated=39 bank_ungated=58 cycle_end=11558 tlb_miss=223 select_scan=11484");
    ("mcf", Technique.Noop, "fetch=2605 annotation=2 dispatch=2089 dispatch_stall=11102 wakeup=1124 select=2047 issue=2047 writeback=2041 rf_read=2043 rf_write=1569 commit=2000 squash=17 cache_miss=448 resize=0 bank_gated=280 bank_ungated=286 cycle_end=11557 tlb_miss=223 select_scan=11474");
    ("mcf", Technique.Extension, "fetch=2609 annotation=1447 dispatch=2091 dispatch_stall=11101 wakeup=1124 select=2047 issue=2047 writeback=2041 rf_read=2043 rf_write=1569 commit=2000 squash=17 cache_miss=448 resize=0 bank_gated=279 bank_ungated=285 cycle_end=11558 tlb_miss=223 select_scan=11484");
    ("mcf", Technique.Improved, "fetch=2609 annotation=1447 dispatch=2091 dispatch_stall=11101 wakeup=1124 select=2047 issue=2047 writeback=2041 rf_read=2043 rf_write=1569 commit=2000 squash=17 cache_miss=448 resize=0 bank_gated=279 bank_ungated=285 cycle_end=11558 tlb_miss=223 select_scan=11484");
    ("mcf", Technique.Abella, "fetch=2685 annotation=0 dispatch=2164 dispatch_stall=11140 wakeup=1202 select=2070 issue=2070 writeback=2066 rf_read=2066 rf_write=1584 commit=2000 squash=18 cache_miss=448 resize=0 bank_gated=48 bank_ungated=67 cycle_end=11558 tlb_miss=223 select_scan=11484");
  ]

let print_golden_rows = false

let test_golden_counts () =
  if print_golden_rows then
    List.iter
      (fun bench ->
        List.iter
          (fun tech ->
            let c, _ = counts_of bench tech in
            Fmt.pr "    (%S, Technique.%s, %S);@."
              bench.Sdiq_workloads.Bench.name (Technique.name tech)
              (Counts.to_string c))
          Technique.all)
      [ gzip (); mcf () ];
  List.iter
    (fun (name, tech, expect) ->
      let bench = if name = "gzip" then gzip () else mcf () in
      let c, _ = counts_of bench tech in
      Alcotest.(check string)
        (Fmt.str "%s/%s event counts" name (Technique.name tech))
        expect (Counts.to_string c))
    golden_counts

(* --- determinism across domains ----------------------------------------- *)

let test_counts_deterministic_across_domains () =
  let jobs =
    List.concat_map
      (fun bench -> List.map (fun t -> (bench, t)) Technique.all)
      [ gzip (); mcf () ]
  in
  let table jobs =
    List.map (fun (b, t) -> Counts.to_string (fst (counts_of b t))) jobs
  in
  let serial = table jobs in
  let pool = Sdiq_util.Pool.create ~domains:3 () in
  let parallel =
    Sdiq_util.Pool.map_list pool
      ~f:(fun (b, t) -> Counts.to_string (fst (counts_of b t)))
      jobs
  in
  Alcotest.(check (list string))
    "event-count table byte-identical serial vs 3 domains" serial parallel

(* --- no-sink fast-path overhead ----------------------------------------- *)

(* The pre-bus inline baseline no longer exists, so the honest proxy is
   a null sink: a subscribed no-op makes the bus active, which strictly
   supersets the no-sink work (every event is constructed and
   delivered). The no-sink path must not be slower than that —
   interleaved min-of-N to shed scheduler noise, 2% tolerance for
   timer jitter. *)
let test_nosink_overhead () =
  let bench = gzip () in
  (* Both runs go through [step_cycle], one cycle at a time: [run] with
     no sink skips quiet cycles (DESIGN.md §13.5), which would hide the
     emitters' cost behind fewer cycles. *)
  let time_run ~attach =
    let p = Technique.build Technique.Baseline bench in
    attach p;
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    while
      (not (Pipeline.drained p)) && p.Pipeline.stats.Stats.committed < 2_000
    do
      Pipeline.step_cycle p
    done;
    Unix.gettimeofday () -. t0
  in
  (* Back-to-back pairs share thermal/cache state, so the per-pair
     ratio is far more stable than the two absolute times; take the
     best of several pairs to shed scheduler noise. *)
  let rounds = 7 in
  let best_ratio = ref infinity in
  for _ = 1 to rounds do
    let nosink = time_run ~attach:(fun _ -> ()) in
    let nullsink =
      time_run ~attach:(fun p ->
          Pipeline.subscribe ~name:"null" p (fun _ -> ()))
    in
    best_ratio := min !best_ratio (nosink /. nullsink)
  done;
  if !best_ratio > 1.02 then
    Alcotest.failf
      "no-sink run consistently slower than null-sink run (best ratio \
       %.3f): the empty bus must stay on the fast path"
      !best_ratio

(* --- JSONL trace structure ---------------------------------------------- *)

let count_lines_with file sub =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let ln = String.length line and ls = String.length sub in
       let rec has i =
         if i + ls > ln then false
         else String.sub line i ls = sub || has (i + 1)
       in
       if has 0 then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let test_trace_structure () =
  let bench = gzip () in
  let file = Filename.temp_file "sdiq-trace" ".jsonl" in
  let oc = open_out file in
  let stats =
    run_with bench Technique.Noop ~attach:(fun p ->
        Pipeline.subscribe ~name:"trace" p (Sdiq_events.Trace.sink oc))
  in
  close_out oc;
  Alcotest.(check int) "one commit line per committed instruction"
    stats.Stats.committed
    (count_lines_with file "\"ev\":\"commit\"");
  Alcotest.(check int) "one cycle_end line per cycle" stats.Stats.cycles
    (count_lines_with file "\"ev\":\"cycle_end\"");
  Alcotest.(check int) "one noop annotation line per IQSET dispatch slot"
    stats.Stats.iqset_dispatch_slots
    (count_lines_with file "\"delivery\":\"noop\"");
  Sys.remove file

(* --- the event stream as a power meter --------------------------------- *)

(* A plain [Stats.absorb] sink folds the stream into the run's own
   statistics, so pricing the fold reproduces the post-hoc energy
   models float for float. *)
let test_meter_matches_post_hoc () =
  let folded = Stats.create () in
  let stats =
    run_with (gzip ()) Technique.Noop ~attach:(fun p ->
        Pipeline.subscribe ~name:"power-meter" p (Stats.absorb folded))
  in
  Alcotest.(check bool) "stream's fold == final stats" true
    (Stats.equal folded stats);
  let params = Sdiq_power.Params.default in
  let cfg = Sdiq_cpu.Config.default in
  Alcotest.(check bool) "iq naive energy float-identical" true
    (Sdiq_power.Iq_power.naive params cfg folded
    = Sdiq_power.Iq_power.naive params cfg stats);
  Alcotest.(check bool) "iq technique energy float-identical" true
    (Sdiq_power.Iq_power.technique params folded
    = Sdiq_power.Iq_power.technique params stats);
  Alcotest.(check bool) "int RF gated energy float-identical" true
    (Sdiq_power.Rf_power.int_gated params folded
    = Sdiq_power.Rf_power.int_gated params stats)

(* --- trace-only events on the adaptive policy --------------------------- *)

let test_abella_emits_resize_and_gating () =
  (* gzip's IQ occupancy is low, so the adaptive window shrinks the
     queue (mcf saturates it and never resizes at this budget). *)
  let c, _ = counts_of (gzip ()) Technique.Abella in
  Alcotest.(check bool) "abella run emits resize events" true
    (Counts.get c (kind_index "resize") > 0);
  Alcotest.(check bool) "abella run emits bank_gated events" true
    (Counts.get c (kind_index "bank_gated") > 0);
  Alcotest.(check bool) "abella run emits bank_ungated events" true
    (Counts.get c (kind_index "bank_ungated") > 0)

(* --- the fetch-group rule ------------------------------------------------ *)

(* Both paths fetch through one group loop, so every cycle's [Fetch]
   events must obey one rule: at most [fetch_width] of them, one IL1
   line, one path, consecutive pcs, and only the last may be a taken
   transfer. Every outcome names its opcode's class; a wrong-path one
   never reports a mispredict or BTB bubble (the predictor is read, not
   trained, off the correct path). *)
let check_fetch_groups bench =
  let open Sdiq_isa in
  let cfg = Sdiq_cpu.Config.default in
  let group = ref [] and wp_groups = ref 0 and groups = ref 0 in
  let check_cycle () =
    let evs = List.rev !group in
    group := [];
    match evs with
    | [] -> ()
    | ((d0 : Exec.dyn), _, wp0) :: _ ->
      incr groups;
      if wp0 then incr wp_groups;
      let line (d : Exec.dyn) = d.pc * 4 / cfg.Sdiq_cpu.Config.il1_line in
      let n = List.length evs in
      if n > cfg.Sdiq_cpu.Config.fetch_width then
        Alcotest.failf "%d fetches in one cycle at pc %d" n d0.pc;
      List.iteri
        (fun k ((d : Exec.dyn), outcome, wp) ->
          if wp <> wp0 then Alcotest.failf "mixed paths at pc %d" d.pc;
          if line d <> line d0 then
            Alcotest.failf "group at pc %d crosses its line at pc %d" d0.pc
              d.pc;
          if d.pc <> d0.pc + k then
            Alcotest.failf "group at pc %d: pc %d at position %d" d0.pc d.pc k;
          if d.taken && k < n - 1 then
            Alcotest.failf "taken transfer at pc %d does not end its group"
              d.pc;
          let cls_ok =
            match d.instr.Instr.op, outcome with
            | ( (Opcode.Beq | Bne | Blt | Bge),
                Event.Cond_branch { taken; mispredicted; btb_bubble } ) ->
              taken = d.taken && not (wp && (mispredicted || btb_bubble))
            | Jmp, Event.Jump { btb_bubble } | Call, Event.Call { btb_bubble }
              ->
              not (wp && btb_bubble)
            | Ret, Event.Return { mispredicted } -> not (wp && mispredicted)
            | (Beq | Bne | Blt | Bge | Jmp | Call | Ret), _ -> false
            | _, _ -> outcome = Event.Sequential
          in
          if not cls_ok then
            Alcotest.failf "%s fetch outcome at pc %d does not match its opcode"
              (if wp then "wrong-path" else "correct-path")
              d.pc)
        evs
  in
  ignore
    (run_with ~budget:20_000 bench Technique.Noop ~attach:(fun p ->
         Pipeline.subscribe ~name:"fetch-groups" p (function
           | Event.Fetch { dyn; outcome; wp } ->
             group := (dyn, outcome, wp) :: !group
           | Event.Cycle_end _ -> check_cycle ()
           | _ -> ()))
      : Stats.t);
  Alcotest.(check bool) "some cycle fetched" true (!groups > 0);
  Alcotest.(check bool) "some wrong-path group" true (!wp_groups > 0)

let test_fetch_groups_obey_rule () =
  check_fetch_groups (gzip ());
  check_fetch_groups (mcf ())

let suite =
  [
    Alcotest.test_case "bus inactive until subscribed" `Quick
      test_bus_inactive_until_subscribed;
    Alcotest.test_case "delivery order is registration order" `Quick
      test_bus_delivery_order;
    Alcotest.test_case "sink exception propagates" `Quick
      test_bus_exception_propagates;
    Alcotest.test_case "pipeline bus starts empty" `Quick
      test_pipeline_bus_starts_empty;
    Alcotest.test_case "sink fold == stats (benchmarks x techniques)" `Quick
      test_sink_fold_matches_stats_all_techniques;
    Alcotest.test_case "no-sink stats == sink-attached stats" `Quick
      test_nosink_stats_equal_sink_stats;
    Alcotest.test_case "quiet skip: every benchmark, three policies" `Quick
      test_quiet_skip_all_benchmarks;
    Alcotest.test_case "quiet skip: sampled results" `Quick
      test_quiet_skip_sampling;
    Alcotest.test_case "quiet skip: same cycle limit" `Quick
      test_quiet_skip_cycle_limit;
    Alcotest.test_case "quiet skip: unpipelined divides" `Quick
      test_quiet_skip_divides;
    QCheck_alcotest.to_alcotest prop_sink_fold_matches_stats;
    Alcotest.test_case "golden event-count snapshot" `Quick test_golden_counts;
    Alcotest.test_case "event counts deterministic across domains" `Quick
      test_counts_deterministic_across_domains;
    Alcotest.test_case "no-sink fast path has no bus overhead" `Quick
      test_nosink_overhead;
    Alcotest.test_case "JSONL trace structure" `Quick test_trace_structure;
    Alcotest.test_case "power meter == post-hoc models" `Quick
      test_meter_matches_post_hoc;
    Alcotest.test_case "abella emits resize and gating events" `Quick
      test_abella_emits_resize_and_gating;
    Alcotest.test_case "fetch groups obey the group rule on both paths"
      `Quick test_fetch_groups_obey_rule;
  ]
