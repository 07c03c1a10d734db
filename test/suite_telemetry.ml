(* Telemetry: span collection well-formedness, the Chrome-trace and
   OpenMetrics renderings, the run ledger's round-trip, the benchdiff
   gate's pass/fail logic — and the discipline that makes all of it
   safe to leave on: tracing must be invisible in simulation output
   (Stats.equal with tracing on/off, byte identity on 1 vs 3 domains). *)

module H = Sdiq_harness
module Obs = Sdiq_obs
module Span = Sdiq_util.Spanlog
module Json = Sdiq_util.Json

let budget = 3_000

let benches () =
  [
    Sdiq_workloads.W_gzip.build ~outer:budget ();
    Sdiq_workloads.W_mcf.build ~outer:budget ();
  ]

let drain_exn () =
  match Span.drain () with
  | Some r -> r
  | None -> Alcotest.fail "drain: no active collector"

(* --- span well-formedness ---------------------------------------------- *)

let test_span_well_formed () =
  Span.start ();
  Span.with_span "outer" (fun () ->
      Span.with_span "inner" ~attrs:[ ("k", "v") ] (fun () -> ());
      Span.count ~by:3 "ticks";
      Span.count "ticks");
  let r = drain_exn () in
  Alcotest.(check int) "two spans" 2 (List.length r.Span.spans);
  Alcotest.(check (list (pair string int)))
    "counters summed" [ ("ticks", 4) ] r.Span.counters;
  let ids = List.map (fun (s : Span.span) -> s.Span.id) r.Span.spans in
  List.iter
    (fun (s : Span.span) ->
      Alcotest.(check bool)
        (s.Span.name ^ " stop >= start")
        true
        (Int64.compare s.Span.stop_ns s.Span.start_ns >= 0);
      Alcotest.(check bool)
        (s.Span.name ^ " start >= origin")
        true
        (Int64.compare s.Span.start_ns r.Span.origin_ns >= 0);
      Alcotest.(check bool)
        (s.Span.name ^ " parent resolvable")
        true
        (s.Span.parent = -1 || List.mem s.Span.parent ids))
    r.Span.spans;
  let inner =
    List.find (fun (s : Span.span) -> s.Span.name = "inner") r.Span.spans
  and outer =
    List.find (fun (s : Span.span) -> s.Span.name = "outer") r.Span.spans
  in
  Alcotest.(check int) "inner's parent is outer" outer.Span.id
    inner.Span.parent;
  Alcotest.(check (list (pair string string)))
    "inner attrs kept" [ ("k", "v") ] inner.Span.attrs;
  Alcotest.(check bool) "collector uninstalled" false (Span.active ())

let test_drain_sorted_and_forced () =
  Span.start ();
  Span.enter "left-open";
  let r = drain_exn () in
  (* An open span is force-closed at drain, not dropped. *)
  Alcotest.(check int) "forced span present" 1 (List.length r.Span.spans);
  let sorted =
    List.sort
      (fun (a : Span.span) (b : Span.span) ->
        compare (a.Span.domain, a.Span.seq) (b.Span.domain, b.Span.seq))
      r.Span.spans
  in
  Alcotest.(check bool) "(domain, seq)-sorted" true (r.Span.spans = sorted)

let test_noop_without_collector () =
  Alcotest.(check bool) "inactive" false (Span.active ());
  (* Every operation must be safe (and silent) with no collector. *)
  Span.enter "nope";
  Span.exit ();
  Span.count "nope";
  Alcotest.(check bool) "drain empty" true (Span.drain () = None)

(* --- Chrome trace rendering -------------------------------------------- *)

let test_trace_json_round_trip () =
  Span.start ();
  Span.with_span "a" (fun () -> Span.with_span "b" (fun () -> ()));
  Span.count ~by:7 "n";
  let r = drain_exn () in
  let doc = Obs.Telemetry.to_chrome_json r in
  match Json.parse doc with
  | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
  | Ok j ->
    let events =
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "no traceEvents array"
    in
    Alcotest.(check int)
      "one event per span + one per counter"
      (List.length r.Span.spans + List.length r.Span.counters)
      (List.length events);
    List.iter
      (fun ev ->
        let str name = Option.bind (Json.member name ev) Json.to_str in
        let num name = Option.bind (Json.member name ev) Json.to_float in
        Alcotest.(check bool) "has name" true (str "name" <> None);
        (match str "ph" with
        | Some "X" ->
          Alcotest.(check bool)
            "complete event has non-negative ts and dur" true
            (match (num "ts", num "dur") with
            | Some ts, Some dur -> ts >= 0. && dur >= 0.
            | _ -> false)
        | Some "C" -> ()
        | _ -> Alcotest.fail "unexpected event phase"))
      events

(* --- OpenMetrics rendering --------------------------------------------- *)

(* Golden snapshot: one registry with every metric kind, rendered
   byte-for-byte. Regenerate by hand if the exposition format changes
   deliberately — the point is that it never changes by accident. *)
let test_openmetrics_golden () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:41 m "wakeups";
  Obs.Metrics.incr m "wakeups";
  Obs.Metrics.set_gauge m "occupancy" 2.5;
  let h = Obs.Metrics.hist m "lat" (Obs.Hist.Linear { width = 2; buckets = 3 }) in
  Obs.Hist.observe h 0;
  Obs.Hist.observe h 1;
  Obs.Hist.observe h 5;
  let s = Obs.Metrics.series m "ipc" ~window:10 in
  Obs.Series.observe s ~cycle:0 3;
  Obs.Series.observe s ~cycle:10 4;
  let expected =
    String.concat "\n"
      [
        "# TYPE sdiq_wakeups counter";
        "sdiq_wakeups_total 42";
        "# TYPE sdiq_occupancy gauge";
        "sdiq_occupancy 2.5";
        "# TYPE sdiq_lat histogram";
        "sdiq_lat_bucket{le=\"1\"} 2";
        "sdiq_lat_bucket{le=\"3\"} 2";
        "sdiq_lat_bucket{le=\"+Inf\"} 3";
        "sdiq_lat_sum 6";
        "sdiq_lat_count 3";
        "# TYPE sdiq_ipc gauge";
        "sdiq_ipc{cell=\"0\",window=\"10\"} 3";
        "sdiq_ipc{cell=\"1\",window=\"10\"} 4";
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "openmetrics golden" expected
    (Obs.Metrics.to_openmetrics m)

let test_openmetrics_sanitizes_names () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "memo.hit-rate @window";
  let out = Obs.Metrics.to_openmetrics m in
  Alcotest.(check bool) "dots and spaces replaced" true
    (let sub = "sdiq_memo_hit_rate__window_total 1" in
     let rec contains i =
       i + String.length sub <= String.length out
       && (String.sub out i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

(* Sanitisation is lossy and suffixes are derived, so distinct registry
   names can collide in the exposition; every family and sample name
   must nonetheless be unique or promtool rejects the scrape. *)
let test_openmetrics_collisions () =
  let m = Obs.Metrics.create () in
  (* "a.b" (counter) and "a_b" (gauge) sanitise to the same family;
     gauge "x_total" collides with counter x's _total sample. *)
  Obs.Metrics.incr m "a.b";
  Obs.Metrics.set_gauge m "a_b" 1.0;
  Obs.Metrics.incr m "x";
  Obs.Metrics.set_gauge m "x_total" 2.0;
  let out = Obs.Metrics.to_openmetrics m in
  let names =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           if l = "" || String.length l >= 1 && l.[0] = '#' then None
           else
             match String.index_opt l ' ' with
             | Some i -> Some (String.sub l 0 i)
             | None -> None)
  in
  Alcotest.(check bool) "all sample names unique" true
    (List.length names = List.length (List.sort_uniq compare names));
  (* The first claimant keeps its natural name; later ones are suffixed. *)
  Alcotest.(check bool) "counter keeps sdiq_a_b_total" true
    (List.mem "sdiq_a_b_total" names);
  Alcotest.(check bool) "gauge a_b renamed" true
    (List.mem "sdiq_a_b_2" names);
  Alcotest.(check bool) "gauge x_total renamed" true
    (List.mem "sdiq_x_total_2" names)

let test_hostprof_metrics () =
  let bench = List.hd (benches ()) in
  let p = Sdiq_cpu.Pipeline.create bench.Sdiq_workloads.Bench.prog in
  let host = Obs.Hostprof.attach p in
  bench.Sdiq_workloads.Bench.init p.Sdiq_cpu.Pipeline.exec;
  let (_ : Sdiq_cpu.Stats.t) = Sdiq_cpu.Pipeline.run ~max_insns:budget p in
  let m = Obs.Hostprof.to_metrics host in
  Alcotest.(check bool) "host cycles counted" true
    (Obs.Metrics.counter m "host_cycles" > 0);
  Alcotest.(check bool) "gc major words gauge present" true
    (Obs.Metrics.gauge m "host_gc_major_words" <> None);
  Alcotest.(check bool) "top-heap words gauge present" true
    (Obs.Metrics.gauge m "host_gc_top_heap_words" <> None);
  (* The exposition of a host profile must be well-terminated. *)
  let om = Obs.Metrics.to_openmetrics m in
  Alcotest.(check bool) "ends with # EOF" true
    (String.length om >= 6 && String.sub om (String.length om - 6) 6 = "# EOF\n")

(* --- run ledger --------------------------------------------------------- *)

let sample_record ?(kind = "test") ?(digest = "d0")
    ?(energy = [ ("noop", 10.5); ("improved", 7.25) ]) () =
  Obs.Ledger.make ~time:"2026-01-01T00:00:00Z" ~git:"deadbee" ~kind ~digest
    ~domains:3 ~pairs:55 ~wall_s:1.5 ~energy ()

let test_ledger_round_trip () =
  let r = sample_record () in
  match Json.parse (Obs.Ledger.to_json r) with
  | Error e -> Alcotest.fail ("ledger JSON does not parse: " ^ e)
  | Ok j -> (
    match Obs.Ledger.of_json j with
    | Error e -> Alcotest.fail ("of_json: " ^ e)
    | Ok r' ->
      Alcotest.(check bool) "round-trips exactly" true (r = r'))

let test_ledger_file_round_trip () =
  let file = Filename.temp_file "sdiq-ledger" ".jsonl" in
  let a = sample_record ()
  and b = sample_record ~energy:[ ("noop", 8.5) ] () in
  let append r =
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644
      file (fun oc -> Obs.Ledger.output oc r)
  in
  append a;
  append b;
  (match Obs.Ledger.load ~file with
  | Error e -> Alcotest.fail e
  | Ok records ->
    Alcotest.(check bool) "append/load preserves order and content" true
      (records = [ a; b ]));
  Sys.remove file;
  match Obs.Ledger.load ~file with
  | Ok _ -> Alcotest.fail "an absent file must not load"
  | Error e ->
    Alcotest.(check string) "absent file is an error"
      (file ^ ": no such ledger") e

let load_text text =
  let file = Filename.temp_file "sdiq-ledger" ".jsonl" in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () -> Obs.Ledger.load ~file)

let test_ledger_rejects_malformed () =
  match load_text "{\"schema\":1,\"oops\"\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line must be an error, not a skip"

let test_ledger_unreadable_path () =
  let dir = Filename.temp_dir "sdiq-ledger" "" in
  (match Obs.Ledger.load ~file:dir with
  | Error msg ->
    Alcotest.(check bool) "message names the path" true
      (String.starts_with ~prefix:(dir ^ ": ") msg)
  | Ok _ -> Alcotest.fail "a directory must be an error, not a ledger");
  Sys.rmdir dir

(* The ledger is append-only, so lines from before the MIPS fields were
   retired must keep loading. *)
let test_ledger_legacy_mips_line () =
  let line =
    {|{"schema":1,"time":"2026-01-01T00:00:00Z","git":"deadbee","kind":"mips","digest":"d0","domains":1,"pairs":2,"wall_s":3.5,"mips_detailed":1.1,"mips_sampled":8.8,"energy":{}}|}
  in
  match load_text (line ^ "\n") with
  | Ok [ r ] ->
    Alcotest.(check string) "kind" "mips" r.Obs.Ledger.kind;
    Alcotest.(check (float 0.)) "wall_s" 3.5 r.Obs.Ledger.wall_s
  | Ok _ -> Alcotest.fail "expected exactly one record"
  | Error e -> Alcotest.fail e

(* Strings that need escaping: quotes, backslashes, control bytes. *)
let gen_ledger_string =
  let open QCheck.Gen in
  string_size ~gen:(oneof [ printable; oneofl [ '"'; '\\'; '\n'; '\001' ] ])
    (int_range 0 12)

let gen_ledger_record =
  let open QCheck.Gen in
  let finite =
    map (fun x -> Float.of_int x /. 64.) (int_range (-100_000) 100_000)
  in
  map
    (fun ((git, kind, digest), (domains, pairs, wall_s), energy) ->
      Obs.Ledger.make ~time:"2026-01-01T00:00:00Z" ~git ~kind ~digest ~domains
        ~pairs ~wall_s ~energy ())
    (triple
       (triple gen_ledger_string gen_ledger_string gen_ledger_string)
       (triple (int_range 1 64) (int_range 0 2000) (oneof [ finite; float ]))
       (list_size (int_range 0 6) (pair gen_ledger_string finite)))

let arbitrary_ledger_record =
  QCheck.make gen_ledger_record ~print:Obs.Ledger.to_json

let prop_ledger_round_trip =
  QCheck.Test.make ~count:300 ~name:"ledger: generated records round-trip"
    arbitrary_ledger_record (fun r ->
      QCheck.assume (Float.is_finite r.Obs.Ledger.wall_s);
      match Json.parse (Obs.Ledger.to_json r) with
      | Error _ -> false
      | Ok j -> Obs.Ledger.of_json j = Ok r)

(* Any single-byte mutation of a valid line is a record or an [Error]
   from [load], never an exception. *)
let prop_ledger_mutation_total =
  QCheck.Test.make ~count:300
    ~name:"ledger: single-byte mutations load or fail, never raise"
    QCheck.(
      pair arbitrary_ledger_record
        (pair (int_range 0 max_int) (int_range 0 255)))
    (fun (r, (pos, byte)) ->
      let line = Bytes.of_string (Obs.Ledger.to_json r) in
      Bytes.set line (pos mod Bytes.length line) (Char.chr byte);
      match load_text (Bytes.to_string line ^ "\n") with
      | Ok _ | Error _ -> true)

(* --- the regression gate ------------------------------------------------ *)

let check_gate name expected (v : Obs.Ledger.verdict) =
  Alcotest.(check bool) name expected v.Obs.Ledger.ok

let test_gate_energy_drift () =
  let base = sample_record () in
  check_gate "identical energy passes" true
    (Obs.Ledger.gate [ base; sample_record () ]);
  check_gate "any energy drift fails" false
    (Obs.Ledger.gate
       [ base; sample_record ~energy:[ ("noop", 10.500001); ("improved", 7.25) ] () ]);
  (* The comparison is symmetric over the technique sets: a technique
     that vanished, appeared or was renamed is a drift too. *)
  check_gate "vanished technique fails" false
    (Obs.Ledger.gate [ base; sample_record ~energy:[ ("noop", 10.5) ] () ]);
  check_gate "appeared technique fails" false
    (Obs.Ledger.gate
       [ base;
         sample_record
           ~energy:[ ("noop", 10.5); ("improved", 7.25); ("extra", 1.0) ]
           ();
       ]);
  check_gate "renamed technique fails" false
    (Obs.Ledger.gate
       [ base; sample_record ~energy:[ ("noop", 10.5); ("renamed", 7.25) ] () ])

(* Every record below is built by its own call: [gate] finds the newest
   record's baseline by physical equality. *)
let test_gate_scoping () =
  let drifted ?kind ?digest () =
    sample_record ?kind ?digest ~energy:[ ("noop", 1.0) ] ()
  in
  check_gate "empty ledger passes" true (Obs.Ledger.gate []);
  check_gate "no comparable prior (digest changed) passes" true
    (Obs.Ledger.gate [ sample_record (); drifted ~digest:"d1" () ]);
  check_gate "no comparable prior (kind changed) passes" true
    (Obs.Ledger.gate [ sample_record (); drifted ~kind:"other" () ]);
  (* The baseline is the most recent same-kind+digest record, not the
     oldest: base -> drifted -> drifted passes even though base ->
     drifted would not. *)
  check_gate "chained drifts compare to the latest prior" true
    (Obs.Ledger.gate [ sample_record (); drifted (); drifted () ])

(* --- tracing is invisible in simulation output -------------------------- *)

let bytes_of_stats (s : Sdiq_cpu.Stats.t) = Marshal.to_string s []

let test_tracing_preserves_stats () =
  let run ~traced =
    if traced then Span.start ();
    let r = H.Runner.create ~budget ~benches:(benches ()) ~domains:1 () in
    H.Runner.run_all r;
    let stats =
      List.concat_map
        (fun b -> List.map (fun t -> H.Runner.run r b t) H.Technique.all)
        (H.Runner.bench_names r)
    in
    if traced then ignore (drain_exn () : Span.result);
    stats
  in
  let off = run ~traced:false and on_ = run ~traced:true in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "Stats.equal with tracing on vs off" true
        (Sdiq_cpu.Stats.equal a b))
    off on_

let test_tracing_preserves_domain_identity () =
  Span.start ();
  let serial = H.Runner.create ~budget ~benches:(benches ()) ~domains:1 () in
  let parallel = H.Runner.create ~budget ~benches:(benches ()) ~domains:3 () in
  H.Runner.run_all serial;
  H.Runner.run_all parallel;
  let r = drain_exn () in
  List.iter
    (fun name ->
      List.iter
        (fun tech ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s byte-identical traced" name
               (H.Technique.name tech))
            (bytes_of_stats (H.Runner.run serial name tech))
            (bytes_of_stats (H.Runner.run parallel name tech)))
        H.Technique.all)
    (H.Runner.bench_names serial);
  (* Both campaigns recorded into one collector: campaign spans and
     memo counters must be present. *)
  let names = List.map (fun (s : Span.span) -> s.Span.name) r.Span.spans in
  Alcotest.(check bool) "campaign.run_all spans" true
    (List.mem "campaign.run_all" names);
  Alcotest.(check bool) "sim.pair spans" true (List.mem "sim.pair" names);
  Alcotest.(check bool) "memo misses counted" true
    (match List.assoc_opt "memo.miss" r.Span.counters with
    | Some n -> n > 0
    | None -> false)

let test_sampling_phase_spans () =
  Span.start ();
  let bench = Sdiq_workloads.W_gzip.build ~outer:2_000 () in
  let p = Sdiq_cpu.Pipeline.create bench.Sdiq_workloads.Bench.prog in
  bench.Sdiq_workloads.Bench.init p.Sdiq_cpu.Pipeline.exec;
  let (_ : H.Sampling.result) =
    H.Sampling.sample
      ~config:{ H.Sampling.ff_len = 2_000; warmup_len = 300; window_len = 300 }
      p
  in
  let r = drain_exn () in
  let count name =
    List.length
      (List.filter (fun (s : Span.span) -> s.Span.name = name) r.Span.spans)
  in
  Alcotest.(check bool) "ff phases traced" true (count "sample.ff" > 0);
  Alcotest.(check bool) "warmup phases traced" true
    (count "sample.warmup" > 0);
  Alcotest.(check bool) "window phases traced" true
    (count "sample.window" > 0)

let test_to_metrics () =
  Span.start ();
  let r = H.Runner.create ~budget ~benches:(benches ()) ~domains:2 () in
  H.Runner.run_all r;
  H.Runner.run_all r (* all memoised: pure hits *);
  let res = drain_exn () in
  let m = Obs.Telemetry.to_metrics ~pairs:10 ~wall_s:2.0 res in
  Alcotest.(check int) "campaign pairs counter" 10
    (Obs.Metrics.counter m "campaign_pairs");
  Alcotest.(check (option (float 1e-9))) "pairs per second" (Some 5.0)
    (Obs.Metrics.gauge m "campaign_pairs_per_sec");
  (match Obs.Metrics.gauge m "memo_hit_ratio" with
  | None -> Alcotest.fail "memo_hit_ratio missing"
  | Some ratio ->
    Alcotest.(check bool) "hit ratio in (0, 1)" true
      (ratio > 0. && ratio < 1.));
  Alcotest.(check bool) "per-span seconds gauges" true
    (Obs.Metrics.gauge m "span_sim.pair_seconds" <> None)

let suite =
  [
    Alcotest.test_case "span nesting, attrs, counters" `Quick
      test_span_well_formed;
    Alcotest.test_case "drain force-closes and sorts" `Quick
      test_drain_sorted_and_forced;
    Alcotest.test_case "no-ops without a collector" `Quick
      test_noop_without_collector;
    Alcotest.test_case "chrome trace JSON round-trip" `Quick
      test_trace_json_round_trip;
    Alcotest.test_case "openmetrics golden snapshot" `Quick
      test_openmetrics_golden;
    Alcotest.test_case "openmetrics name sanitization" `Quick
      test_openmetrics_sanitizes_names;
    Alcotest.test_case "openmetrics collision dedup" `Quick
      test_openmetrics_collisions;
    Alcotest.test_case "hostprof gc gauges + exposition" `Quick
      test_hostprof_metrics;
    Alcotest.test_case "ledger record round-trip" `Quick
      test_ledger_round_trip;
    Alcotest.test_case "ledger append/load round-trip" `Quick
      test_ledger_file_round_trip;
    Alcotest.test_case "ledger rejects malformed lines" `Quick
      test_ledger_rejects_malformed;
    Alcotest.test_case "ledger load: unreadable path is an Error" `Quick
      test_ledger_unreadable_path;
    Alcotest.test_case "ledger load: legacy mips_* line" `Quick
      test_ledger_legacy_mips_line;
    QCheck_alcotest.to_alcotest prop_ledger_round_trip;
    QCheck_alcotest.to_alcotest prop_ledger_mutation_total;
    Alcotest.test_case "gate: exact energy drift" `Quick
      test_gate_energy_drift;
    Alcotest.test_case "gate: kind/digest scoping" `Quick test_gate_scoping;
    Alcotest.test_case "tracing preserves Stats.equal" `Quick
      test_tracing_preserves_stats;
    Alcotest.test_case "tracing preserves 1-vs-3-domain identity" `Quick
      test_tracing_preserves_domain_identity;
    Alcotest.test_case "sampling phase spans" `Quick
      test_sampling_phase_spans;
    Alcotest.test_case "to_metrics: ratios and geometry" `Quick
      test_to_metrics;
  ]
