(* Certificates against reality: the static occupancy/energy bounds
   must dominate every measured run. The grid here is the golden
   suite's own — every (benchmark x technique) pair at the pinned
   budget, plus the tightened configuration — so a certificate that
   under-approximates anything the simulator actually does fails
   loudly, and the per-region occupancy bounds are checked against the
   profiler's observed per-region peaks. *)

module Technique = Sdiq_harness.Technique
module Certificate = Sdiq_analysis.Certificate
module Finding = Sdiq_analysis.Finding

let config = Sdiq_cpu.Config.default
let params = Sdiq_power.Params.default
let budget = 2_000

let techniques = Technique.all @ [ Technique.Tightened ]

let test_bounds_hold_on_grid () =
  let runner =
    Sdiq_harness.Runner.create ~budget ~benches:(Sdiq_workloads.Suite.tiny ())
      ()
  in
  List.iter
    (fun name ->
      let bench = Sdiq_harness.Runner.find_bench runner name in
      List.iter
        (fun tech ->
          let stats = Sdiq_harness.Runner.run runner name tech in
          let prepared =
            Technique.prepare tech bench.Sdiq_workloads.Bench.prog
          in
          let cert = Certificate.build config prepared in
          let findings = Certificate.check params config cert stats in
          if not (Finding.is_clean findings) then
            Alcotest.failf "%s/%s: certificate violated:@.%a" name
              (Technique.name tech)
              Fmt.(list ~sep:(any "@.") Finding.pp)
              (List.filter
                 (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
                 findings))
        techniques)
    (Sdiq_harness.Runner.bench_names runner)

(* Per-region: the certified occupancy bound of every delivered region
   dominates the profiler's observed peak occupancy while that region
   was current. Regions without a certified entry (the synthetic
   startup region, procedure regions of unannotated deliveries) fall
   back to the physical cap, which the hardware cannot exceed — the
   [certified] counter keeps the test honest about how many regions got
   a real (non-fallback) bound. *)
let test_region_bounds_dominate_peaks () =
  let certified = ref 0 in
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      let name = bench.Sdiq_workloads.Bench.name in
      let prog = bench.Sdiq_workloads.Bench.prog in
      List.iter
        (fun tech ->
          let map = Sdiq_obs.Region.build (Technique.recipe tech) prog in
          let running = Sdiq_obs.Region.running_prog map in
          let p =
            Sdiq_cpu.Pipeline.create ~policy:(Technique.policy tech) running
          in
          let prof = Sdiq_obs.Profiler.attach map p in
          ignore (Sdiq_cpu.Pipeline.run ~max_cycles:3_000_000 p
                  : Sdiq_cpu.Stats.t);
          let cert = Certificate.build config running in
          Array.iter
            (fun (info : Sdiq_obs.Region.info) ->
              let peak = Sdiq_obs.Profiler.region_peak prof info.id in
              let bound =
                match
                  Certificate.occupancy_bound cert ~start:info.start
                with
                | Some b ->
                  incr certified;
                  b
                | None -> cert.Certificate.cap
              in
              if peak > bound then
                Alcotest.failf
                  "%s/%s region %d (%s@%d): peak occupancy %d exceeds \
                   certified bound %d"
                  name (Technique.name tech) info.id info.proc info.start
                  peak bound)
            (Sdiq_obs.Region.infos map))
        [ Technique.Improved; Technique.Tightened ])
    (Sdiq_workloads.Suite.tiny ());
  if !certified = 0 then
    Alcotest.fail "no region matched a certified bound (lookup is vacuous)"

(* The certificate is not all saturation: on the suite, some benchmark
   certifies a program-wide occupancy bound strictly below the physical
   cap (mcf and crafty do, by a wide margin). *)
let test_some_bound_below_cap () =
  let below =
    List.filter
      (fun (bench : Sdiq_workloads.Bench.t) ->
        let prepared =
          Technique.prepare Technique.Tightened bench.Sdiq_workloads.Bench.prog
        in
        let cert = Certificate.build config prepared in
        cert.Certificate.occ_bound < cert.Certificate.cap)
      (Sdiq_workloads.Suite.all ())
  in
  if below = [] then
    Alcotest.fail "every program-wide occupancy bound saturated at the cap"

let suite =
  [
    Alcotest.test_case "certificate bounds hold on the golden grid" `Quick
      test_bounds_hold_on_grid;
    Alcotest.test_case "region bounds dominate profiler peaks" `Quick
      test_region_bounds_dominate_peaks;
    Alcotest.test_case "some certified bound is below the cap" `Quick
      test_some_bound_below_cap;
  ]
