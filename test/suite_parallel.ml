(* The parallel campaign must be invisible in the results: the paper's
   figures are derived from the (benchmark x technique) table, so a
   1-domain and an N-domain [run_all] must produce byte-identical
   statistics for every pair — no figure may depend on scheduling. *)

module H = Sdiq_harness

let budget = 3_000

let benches () =
  [
    Sdiq_workloads.W_gzip.build ~outer:budget ();
    Sdiq_workloads.W_crafty.build ~outer:budget ();
    Sdiq_workloads.W_mcf.build ~outer:budget ();
  ]

let runner ~domains = H.Runner.create ~budget ~benches:(benches ()) ~domains ()

(* Byte-identical, literally: compare the marshalled representation. *)
let bytes_of_stats (s : Sdiq_cpu.Stats.t) = Marshal.to_string s []

let test_determinism_across_domains () =
  let serial = runner ~domains:1 in
  let parallel = runner ~domains:4 in
  H.Runner.run_all serial;
  H.Runner.run_all parallel;
  List.iter
    (fun name ->
      List.iter
        (fun tech ->
          let a = H.Runner.run serial name tech in
          let b = H.Runner.run parallel name tech in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s byte-identical" name (H.Technique.name tech))
            (bytes_of_stats a) (bytes_of_stats b))
        H.Technique.all)
    (H.Runner.bench_names serial)

let test_campaign_stats_populated () =
  let r = runner ~domains:2 in
  Alcotest.(check bool) "no campaign before run_all" true
    (H.Runner.campaign_stats r = None);
  H.Runner.run_all r;
  match H.Runner.campaign_stats r with
  | None -> Alcotest.fail "campaign_stats expected after run_all"
  | Some c ->
    let pairs = 3 * List.length H.Technique.all in
    Alcotest.(check int) "pairs_total" pairs c.H.Runner.pairs_total;
    Alcotest.(check int) "pairs_run" pairs c.H.Runner.pairs_run;
    Alcotest.(check int) "domains_used" 2 c.H.Runner.domains_used;
    Alcotest.(check bool) "wall clock positive" true (c.H.Runner.wall_s > 0.);
    Alcotest.(check bool) "serial estimate positive" true
      (c.H.Runner.serial_estimate_s > 0.);
    Alcotest.(check bool) "speedup finite and positive" true
      (let s = H.Runner.speedup c in
       Float.is_finite s && s > 0.)

(* Every regime's campaign records its stats: the sampled and profiled
   campaigns share [run_all]'s path, so each reports its own grid. *)
let test_campaign_stats_every_regime () =
  let check what r ~pairs =
    match H.Runner.campaign_stats r with
    | None -> Alcotest.failf "campaign_stats expected after %s" what
    | Some c ->
      Alcotest.(check int) (what ^ ": pairs_total") pairs
        c.H.Runner.pairs_total;
      Alcotest.(check int) (what ^ ": pairs_run") pairs c.H.Runner.pairs_run
  in
  let sampled =
    H.Runner.create ~benches:[ Sdiq_workloads.W_gzip.build ~outer:2_000 () ]
      ~domains:2 ()
  in
  H.Runner.run_all_sampled sampled;
  check "run_all_sampled" sampled ~pairs:(List.length H.Technique.all);
  let profiled = runner ~domains:2 in
  let techniques = [ H.Technique.Noop; H.Technique.Abella ] in
  ignore (H.Runner.profile_all ~techniques profiled);
  check "profile_all" profiled ~pairs:(3 * List.length techniques)

let test_run_all_idempotent () =
  let r = runner ~domains:2 in
  H.Runner.run_all r;
  let before =
    List.map (fun n -> H.Runner.run r n H.Technique.Baseline)
      (H.Runner.bench_names r)
  in
  H.Runner.run_all r;
  (* Second campaign has nothing to do and must not replace memo entries. *)
  (match H.Runner.campaign_stats r with
  | Some c -> Alcotest.(check int) "nothing re-run" 0 c.H.Runner.pairs_run
  | None -> Alcotest.fail "campaign_stats expected");
  List.iteri
    (fun i n ->
      Alcotest.(check bool)
        (n ^ " stats physically preserved")
        true
        (List.nth before i == H.Runner.run r n H.Technique.Baseline))
    (H.Runner.bench_names r)

let test_figures_match_serial () =
  (* The figure pipeline consumes the table; spot-check one end-to-end. *)
  let serial = runner ~domains:1 in
  let parallel = runner ~domains:3 in
  H.Runner.run_all serial;
  H.Runner.run_all parallel;
  let col r =
    let e = H.Experiments.fig6 r in
    (List.hd e.H.Experiments.columns).H.Experiments.per_bench
  in
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "same row order" n1 n2;
      Alcotest.(check (float 0.)) ("fig6 " ^ n1 ^ " identical") v1 v2)
    (col serial) (col parallel)

let suite =
  [
    Alcotest.test_case "run_all deterministic across domain counts" `Quick
      test_determinism_across_domains;
    Alcotest.test_case "campaign stats populated" `Quick
      test_campaign_stats_populated;
    Alcotest.test_case "campaign stats for every regime" `Quick
      test_campaign_stats_every_regime;
    Alcotest.test_case "run_all idempotent, memo preserved" `Quick
      test_run_all_idempotent;
    Alcotest.test_case "fig6 identical serial vs parallel" `Quick
      test_figures_match_serial;
  ]
