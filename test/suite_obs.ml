(* The observability layer (lib/obs): histogram/series/metrics algebra,
   the static region map, and the profiler's conservation law — the
   per-region attribution buckets sum back to the pipeline's own
   statistics exactly, and pricing the sum reproduces the pricing of
   the event stream's own fold float for float, on every benchmark x
   delivering technique. *)

module Hist = Sdiq_obs.Hist
module Series = Sdiq_obs.Series
module Metrics = Sdiq_obs.Metrics
module Region = Sdiq_obs.Region
module Profiler = Sdiq_obs.Profiler
module Technique = Sdiq_harness.Technique
module Runner = Sdiq_harness.Runner
module Pipeline = Sdiq_cpu.Pipeline
module Stats = Sdiq_cpu.Stats
module Bench = Sdiq_workloads.Bench

(* --- histograms --------------------------------------------------------- *)

let test_hist_linear () =
  let h = Hist.create (Hist.Linear { width = 8; buckets = 4 }) in
  List.iter (Hist.observe h) [ 0; 7; 8; 15; 100; -3 ];
  Alcotest.(check (array int)) "buckets" [| 3; 2; 0; 1 |] (Hist.buckets h);
  Alcotest.(check int) "count" 6 (Hist.count h);
  Alcotest.(check int) "sum (negatives clamp to 0)" 130 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 100 (Hist.max_value h)

let test_hist_log2 () =
  let k = Hist.Log2 { buckets = 4 } in
  let h = Hist.create k in
  List.iter (Hist.observe h) [ 0; 1; 2; 3; 4; 7; 1000 ];
  (* 0 -> b0; 1 -> b1; 2,3 -> b2; 4,7 -> b3; 1000 clamps into b3 *)
  Alcotest.(check (array int)) "buckets" [| 1; 1; 2; 3 |] (Hist.buckets h);
  Alcotest.(check int) "bucket of 0" 0 (Hist.bucket_index k 0);
  Alcotest.(check int) "bucket of 1" 1 (Hist.bucket_index k 1);
  Alcotest.(check int) "bucket of 5" 3 (Hist.bucket_index k 5)

let test_hist_merge_shape_mismatch () =
  let a = Hist.create (Hist.Linear { width = 8; buckets = 4 }) in
  let b = Hist.create (Hist.Linear { width = 4; buckets = 4 }) in
  Alcotest.check_raises "shape mismatch rejected"
    (Invalid_argument "Hist.merge: shape mismatch") (fun () ->
      ignore (Hist.merge a b))

let test_series_windowing () =
  let s = Series.create ~window:10 in
  Series.observe s ~cycle:0 2;
  Series.observe s ~cycle:9 3;
  Series.observe s ~cycle:25 7;
  Alcotest.(check int) "length spans highest cell" 3 (Series.length s);
  Alcotest.(check int) "cell 0" 5 (Series.get s 0);
  Alcotest.(check int) "cell 1 (gap)" 0 (Series.get s 1);
  Alcotest.(check int) "cell 2" 7 (Series.get s 2);
  Alcotest.(check int) "total" 12 (Series.total s)

let test_metrics_render_insertion_independent () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun (k, v) -> Metrics.incr ~by:v m k) order;
    Metrics.set_gauge m "g" 2.5;
    Hist.observe (Metrics.hist m "h" (Hist.Linear { width = 2; buckets = 3 })) 4;
    Series.observe (Metrics.series m "s" ~window:5) ~cycle:7 1;
    m
  in
  let a = build [ ("x", 1); ("y", 2); ("z", 3) ] in
  let b = build [ ("z", 3); ("x", 1); ("y", 2) ] in
  Alcotest.(check bool) "equal" true (Metrics.equal a b);
  Alcotest.(check string) "byte-identical rendering" (Metrics.to_string a)
    (Metrics.to_string b)

(* --- merge algebra (qcheck) --------------------------------------------- *)

let prop_count = 200

let hist_of kind obs =
  let h = Hist.create kind in
  List.iter (Hist.observe h) obs;
  h

let gen_hist_kind =
  QCheck.Gen.oneofl
    [ Hist.Linear { width = 4; buckets = 6 }; Hist.Log2 { buckets = 8 } ]

let arbitrary_hist_triple =
  let gen =
    let open QCheck.Gen in
    let obs = list_size (int_range 0 30) (int_range 0 200) in
    gen_hist_kind >>= fun kind ->
    map3 (fun a b c -> (kind, a, b, c)) obs obs obs
  in
  QCheck.make gen ~print:(fun (kind, a, b, c) ->
      Printf.sprintf "%s / %s / %s"
        (Hist.to_string (hist_of kind a))
        (Hist.to_string (hist_of kind b))
        (Hist.to_string (hist_of kind c)))

let prop_hist_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"histogram merge is associative and commutative"
    arbitrary_hist_triple
    (fun (kind, oa, ob, oc) ->
      let a = hist_of kind oa and b = hist_of kind ob and c = hist_of kind oc in
      Hist.equal
        (Hist.merge (Hist.merge a b) c)
        (Hist.merge a (Hist.merge b c))
      && Hist.to_string (Hist.merge a b) = Hist.to_string (Hist.merge b a))

let series_of window obs =
  let s = Series.create ~window in
  List.iter (fun (cycle, v) -> Series.observe s ~cycle v) obs;
  s

let arbitrary_series_triple =
  let gen =
    let open QCheck.Gen in
    let obs =
      list_size (int_range 0 30)
        (pair (int_range 0 100) (int_range 0 10))
    in
    oneofl [ 1; 5; 16 ] >>= fun window ->
    map3 (fun a b c -> (window, a, b, c)) obs obs obs
  in
  QCheck.make gen ~print:(fun (window, a, b, c) ->
      Printf.sprintf "%s / %s / %s"
        (Series.to_string (series_of window a))
        (Series.to_string (series_of window b))
        (Series.to_string (series_of window c)))

let prop_series_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"series merge is associative and commutative"
    arbitrary_series_triple
    (fun (window, oa, ob, oc) ->
      let a = series_of window oa
      and b = series_of window ob
      and c = series_of window oc in
      Series.equal
        (Series.merge (Series.merge a b) c)
        (Series.merge a (Series.merge b c))
      && Series.to_string (Series.merge a b)
         = Series.to_string (Series.merge b a))

type metrics_op =
  | Op_counter of string * int
  | Op_gauge of string * float
  | Op_hist of string * int
  | Op_series of string * int * int

let metrics_of ops =
  let m = Metrics.create () in
  List.iter
    (function
      | Op_counter (k, v) -> Metrics.incr ~by:v m k
      | Op_gauge (k, v) -> Metrics.set_gauge m k v
      | Op_hist (k, v) ->
        Hist.observe (Metrics.hist m k (Hist.Linear { width = 2; buckets = 4 })) v
      | Op_series (k, cycle, v) ->
        Series.observe (Metrics.series m k ~window:8) ~cycle v)
    ops;
  m

let gen_metrics_op =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (3, map2 (fun k v -> Op_counter (k, v)) name (int_range 0 50));
      (2, map2 (fun k v -> Op_gauge (k, float_of_int v)) name (int_range 0 50));
      (2, map2 (fun k v -> Op_hist (k, v)) name (int_range 0 20));
      ( 2,
        map3 (fun k c v -> Op_series (k, c, v)) name (int_range 0 60)
          (int_range 0 9) );
    ]

let arbitrary_metrics_triple =
  let gen =
    let open QCheck.Gen in
    let ops = list_size (int_range 0 25) gen_metrics_op in
    map3 (fun a b c -> (a, b, c)) ops ops ops
  in
  QCheck.make gen ~print:(fun (a, b, c) ->
      Printf.sprintf "%s\n--\n%s\n--\n%s"
        (Metrics.to_string (metrics_of a))
        (Metrics.to_string (metrics_of b))
        (Metrics.to_string (metrics_of c)))

let prop_metrics_merge_assoc_comm =
  QCheck.Test.make ~count:prop_count
    ~name:"metrics merge is associative and commutative"
    arbitrary_metrics_triple
    (fun (oa, ob, oc) ->
      let a = metrics_of oa and b = metrics_of ob and c = metrics_of oc in
      Metrics.equal
        (Metrics.merge (Metrics.merge a b) c)
        (Metrics.merge a (Metrics.merge b c))
      && Metrics.to_string (Metrics.merge a b)
         = Metrics.to_string (Metrics.merge b a))

(* --- the region map ----------------------------------------------------- *)

let gzip () = (List.hd (Sdiq_workloads.Suite.tiny ())).Bench.prog

let test_region_map_noop () =
  let prog = gzip () in
  let map = Region.build (Technique.recipe Technique.Noop) prog in
  let infos = Region.infos map in
  Alcotest.(check bool) "startup region first" true
    (infos.(0).Region.kind = Region.Startup);
  Alcotest.(check bool) "more than just startup" true (Region.count map > 1);
  (* NOOP delivery inserts instructions, so the running binary is
     longer and region starts live in the shifted address space. *)
  Alcotest.(check bool) "running binary grew" true
    (Sdiq_isa.Prog.length (Region.running_prog map)
    > Sdiq_isa.Prog.length prog);
  Array.iter
    (fun (info : Region.info) ->
      if info.Region.kind <> Region.Startup then
        Alcotest.(check int)
          (Printf.sprintf "region %d owns its own start" info.Region.id)
          info.Region.id
          (Region.of_addr map info.Region.start))
    infos;
  (* every address belongs to some region *)
  for addr = 0 to Sdiq_isa.Prog.length (Region.running_prog map) - 1 do
    let r = Region.of_addr map addr in
    if r < 0 || r >= Region.count map then
      Alcotest.failf "address %d mapped to bad region %d" addr r
  done

(* The profiled runner regime builds its machine with [Technique.build]
   and attributes it with a separately built region map, so the map's
   running binary must be exactly the prepared one — structurally, not
   just in length. *)
let test_region_map_matches_technique () =
  List.iter
    (fun (bench : Bench.t) ->
      List.iter
        (fun tech ->
          let prog = bench.Bench.prog in
          let map = Region.build (Technique.recipe tech) prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: running binary equals prepare"
               bench.Bench.name (Technique.name tech))
            true
            (Region.running_prog map = Technique.prepare tech prog))
        Technique.extended)
    (Sdiq_workloads.Suite.tiny ())

(* The profiled runner regime prepares each binary once: its machine
   runs the very program the region map was built on. *)
let test_profiled_machine_runs_map_binary () =
  let bench = List.hd (Sdiq_workloads.Suite.tiny ()) in
  let running = ref None in
  let checker p = running := Some p.Pipeline.prog in
  let runner = Runner.create ~budget:500 ~benches:[ bench ] ~checker () in
  List.iter
    (fun tech ->
      let prof = Runner.profile runner bench.Bench.name tech in
      Alcotest.(check bool)
        (Technique.name tech ^ ": machine program == running_prog map")
        true
        (Option.get !running == Region.running_prog (Profiler.map prof)))
    Technique.extended

(* --- conservation ------------------------------------------------------- *)

let budget = 2_000
let delivering = [ Technique.Noop; Technique.Extension; Technique.Improved ]

let test_attribution_conservation () =
  let benches = Sdiq_workloads.Suite.tiny () in
  let runner = Runner.create ~budget ~benches () in
  List.iter
    (fun (bench : Bench.t) ->
      List.iter
        (fun tech ->
          let where what =
            bench.Bench.name ^ "/" ^ Technique.name tech ^ " " ^ what
          in
          let map = Region.build (Technique.recipe tech) bench.Bench.prog in
          let p =
            Pipeline.create
              ~policy:(Technique.policy tech)
              (Region.running_prog map)
          in
          let prof = Profiler.attach map p in
          let folded = Stats.create () in
          Pipeline.subscribe ~name:"power-meter" p (Stats.absorb folded);
          bench.Bench.init p.Pipeline.exec;
          let stats = Pipeline.run ~max_insns:budget p in
          let total = Profiler.total_stats prof in
          (* integer conservation: the region buckets sum back to the
             pipeline's own fold and to a plain sink's independent fold
             of the event stream *)
          Alcotest.(check bool)
            (where "region sum == pipeline stats")
            true (Stats.equal total stats);
          Alcotest.(check bool)
            (where "region sum == meter stats")
            true (Stats.equal total folded);
          (* float conservation: pricing the summed buckets reproduces
             the pricing of the stream's fold exactly *)
          let params = Sdiq_power.Params.default in
          let e = Sdiq_power.Iq_power.technique params total in
          let m = Sdiq_power.Iq_power.technique params folded in
          Alcotest.(check (float 0.))
            (where "iq dynamic energy")
            m.Sdiq_power.Iq_power.dynamic e.Sdiq_power.Iq_power.dynamic;
          Alcotest.(check (float 0.))
            (where "iq static energy")
            m.Sdiq_power.Iq_power.static_ e.Sdiq_power.Iq_power.static_;
          let er = Sdiq_power.Rf_power.int_gated params total in
          let mr = Sdiq_power.Rf_power.int_gated params folded in
          Alcotest.(check (float 0.))
            (where "rf dynamic energy")
            mr.Sdiq_power.Rf_power.dynamic er.Sdiq_power.Rf_power.dynamic;
          (* and the profiled run is the same simulation the runner's
             (independent, unprofiled) campaign performs *)
          let rstats = Runner.run runner bench.Bench.name tech in
          Alcotest.(check bool)
            (where "matches runner's independent run")
            true (Stats.equal total rstats);
          (* the metrics registry agrees with the statistics *)
          let metrics = Profiler.metrics prof in
          Alcotest.(check int)
            (where "commits counter")
            stats.Stats.committed
            (Metrics.counter metrics "commits");
          Alcotest.(check int)
            (where "cycles counter")
            stats.Stats.cycles
            (Metrics.counter metrics "cycles"))
        delivering)
    benches

let test_slack_report_nonempty () =
  let benches = Sdiq_workloads.Suite.tiny () in
  let runner = Runner.create ~budget ~benches () in
  let prof = Runner.profile runner "gzip" Technique.Noop in
  let entries = Profiler.slack prof in
  Alcotest.(check bool) "gzip noop has granted regions" true (entries <> []);
  Alcotest.(check bool) "at least one over-provisioned region" true
    (List.exists (fun (e : Profiler.slack_entry) -> e.Profiler.slack > 0) entries)

(* --- sharded determinism ------------------------------------------------ *)

let test_profile_all_deterministic () =
  let benches =
    List.filter
      (fun (b : Bench.t) -> List.mem b.Bench.name [ "gzip"; "gcc"; "mcf" ])
      (Sdiq_workloads.Suite.tiny ())
  in
  let techniques = [ Technique.Noop; Technique.Improved ] in
  let serial = Runner.create ~budget ~benches ~domains:1 () in
  let sharded = Runner.create ~budget ~benches ~domains:3 () in
  let pairs_s, campaign_s = Runner.profile_all ~techniques serial in
  let pairs_p, campaign_p = Runner.profile_all ~techniques sharded in
  Alcotest.(check int) "same grid size" (List.length pairs_s)
    (List.length pairs_p);
  Alcotest.(check string) "campaign metrics byte-identical"
    (Metrics.to_string campaign_s)
    (Metrics.to_string campaign_p);
  List.iter2
    (fun (n1, t1, prof1) (n2, t2, prof2) ->
      Alcotest.(check string) "pair order" n1 n2;
      Alcotest.(check string) "pair technique"
        (Technique.name t1) (Technique.name t2);
      Alcotest.(check string)
        (n1 ^ "/" ^ Technique.name t1 ^ " profile byte-identical")
        (Profiler.to_json prof1) (Profiler.to_json prof2))
    pairs_s pairs_p

let suite =
  [
    Alcotest.test_case "hist: linear bucketing" `Quick test_hist_linear;
    Alcotest.test_case "hist: log2 bucketing" `Quick test_hist_log2;
    Alcotest.test_case "hist: merge rejects shape mismatch" `Quick
      test_hist_merge_shape_mismatch;
    Alcotest.test_case "series: windowing and gaps" `Quick
      test_series_windowing;
    Alcotest.test_case "metrics: rendering is insertion-independent" `Quick
      test_metrics_render_insertion_independent;
    QCheck_alcotest.to_alcotest prop_hist_merge_assoc_comm;
    QCheck_alcotest.to_alcotest prop_series_merge_assoc_comm;
    QCheck_alcotest.to_alcotest prop_metrics_merge_assoc_comm;
    Alcotest.test_case "region map: noop delivery" `Quick test_region_map_noop;
    Alcotest.test_case "region map: running binary matches prepare" `Quick
      test_region_map_matches_technique;
    Alcotest.test_case "profiled machine runs the map's binary" `Quick
      test_profiled_machine_runs_map_binary;
    Alcotest.test_case "attribution conservation (all benches x deliveries)"
      `Quick test_attribution_conservation;
    Alcotest.test_case "slack report flags over-provisioned regions" `Quick
      test_slack_report_nonempty;
    Alcotest.test_case "sharded profiling campaign is deterministic" `Quick
      test_profile_all_deterministic;
  ]
