(* Golden statistics snapshot: pins (cycles, committed, iq_banks_on_sum,
   iq_wakeups_gated, iq_scan_entries, iq_wakeups_suppressed) for every
   (benchmark x technique) pair of the Figure 6 suite at a small budget,
   under the default [oldest_first] scheduler. Any timing or power-accounting
   change — intended or not — shows up here as an exact diff.

   Regenerate the table after an INTENTIONAL change with

     dune exec test/golden_gen.exe

   and explain in the commit message why the numbers moved. *)

module Technique = Sdiq_harness.Technique

type expect = {
  cycles : int;
  committed : int;
  iq_banks_on_sum : int;
  iq_wakeups_gated : int;
  iq_scan_entries : int;
  iq_wakeups_suppressed : int;
      (* always 0 here: the snapshot runs the default [oldest_first]
         scheduler, which suppresses nothing *)
  regions : int;
      (* static region-map size for the pair's delivery — pins the
         attribution decomposition the profiler runs against *)
}

let golden =
  [
    ("gzip", Technique.Baseline, { cycles = 1946; committed = 2000; iq_banks_on_sum = 7844; iq_wakeups_gated = 34709; iq_scan_entries = 79201; iq_wakeups_suppressed = 0; regions = 6 });
    ("gzip", Technique.Noop, { cycles = 2025; committed = 2000; iq_banks_on_sum = 7859; iq_wakeups_gated = 32694; iq_scan_entries = 80132; iq_wakeups_suppressed = 0; regions = 6 });
    ("gzip", Technique.Extension, { cycles = 1946; committed = 2000; iq_banks_on_sum = 7729; iq_wakeups_gated = 33220; iq_scan_entries = 78288; iq_wakeups_suppressed = 0; regions = 6 });
    ("gzip", Technique.Improved, { cycles = 1946; committed = 2000; iq_banks_on_sum = 7729; iq_wakeups_gated = 33220; iq_scan_entries = 78288; iq_wakeups_suppressed = 0; regions = 6 });
    ("gzip", Technique.Abella, { cycles = 1991; committed = 2000; iq_banks_on_sum = 7754; iq_wakeups_gated = 33512; iq_scan_entries = 77788; iq_wakeups_suppressed = 0; regions = 6 });
    ("vpr", Technique.Baseline, { cycles = 3064; committed = 2001; iq_banks_on_sum = 13545; iq_wakeups_gated = 79305; iq_scan_entries = 120688; iq_wakeups_suppressed = 0; regions = 4 });
    ("vpr", Technique.Noop, { cycles = 2869; committed = 2001; iq_banks_on_sum = 13716; iq_wakeups_gated = 112092; iq_scan_entries = 120973; iq_wakeups_suppressed = 0; regions = 4 });
    ("vpr", Technique.Extension, { cycles = 3064; committed = 2001; iq_banks_on_sum = 13545; iq_wakeups_gated = 78280; iq_scan_entries = 120457; iq_wakeups_suppressed = 0; regions = 4 });
    ("vpr", Technique.Improved, { cycles = 3064; committed = 2001; iq_banks_on_sum = 13545; iq_wakeups_gated = 78280; iq_scan_entries = 120457; iq_wakeups_suppressed = 0; regions = 4 });
    ("vpr", Technique.Abella, { cycles = 3064; committed = 2001; iq_banks_on_sum = 13129; iq_wakeups_gated = 77165; iq_scan_entries = 120427; iq_wakeups_suppressed = 0; regions = 4 });
    ("gcc", Technique.Baseline, { cycles = 2074; committed = 2003; iq_banks_on_sum = 4618; iq_wakeups_gated = 18276; iq_scan_entries = 27395; iq_wakeups_suppressed = 0; regions = 8 });
    ("gcc", Technique.Noop, { cycles = 2089; committed = 2003; iq_banks_on_sum = 4389; iq_wakeups_gated = 17047; iq_scan_entries = 25057; iq_wakeups_suppressed = 0; regions = 8 });
    ("gcc", Technique.Extension, { cycles = 2074; committed = 2003; iq_banks_on_sum = 4464; iq_wakeups_gated = 17653; iq_scan_entries = 25777; iq_wakeups_suppressed = 0; regions = 8 });
    ("gcc", Technique.Improved, { cycles = 2074; committed = 2003; iq_banks_on_sum = 4464; iq_wakeups_gated = 17653; iq_scan_entries = 25777; iq_wakeups_suppressed = 0; regions = 8 });
    ("gcc", Technique.Abella, { cycles = 2074; committed = 2003; iq_banks_on_sum = 4524; iq_wakeups_gated = 17977; iq_scan_entries = 26801; iq_wakeups_suppressed = 0; regions = 8 });
    ("mcf", Technique.Baseline, { cycles = 11567; committed = 2007; iq_banks_on_sum = 113642; iq_wakeups_gated = 92376; iq_scan_entries = 899750; iq_wakeups_suppressed = 0; regions = 4 });
    ("mcf", Technique.Noop, { cycles = 11567; committed = 2007; iq_banks_on_sum = 33313; iq_wakeups_gated = 14944; iq_scan_entries = 189901; iq_wakeups_suppressed = 0; regions = 4 });
    ("mcf", Technique.Extension, { cycles = 11567; committed = 2007; iq_banks_on_sum = 33324; iq_wakeups_gated = 14968; iq_scan_entries = 189929; iq_wakeups_suppressed = 0; regions = 4 });
    ("mcf", Technique.Improved, { cycles = 11567; committed = 2007; iq_banks_on_sum = 33324; iq_wakeups_gated = 14968; iq_scan_entries = 189929; iq_wakeups_suppressed = 0; regions = 4 });
    ("mcf", Technique.Abella, { cycles = 11567; committed = 2007; iq_banks_on_sum = 113642; iq_wakeups_gated = 90462; iq_scan_entries = 887278; iq_wakeups_suppressed = 0; regions = 4 });
    ("crafty", Technique.Baseline, { cycles = 608; committed = 2003; iq_banks_on_sum = 2298; iq_wakeups_gated = 64373; iq_scan_entries = 16852; iq_wakeups_suppressed = 0; regions = 4 });
    ("crafty", Technique.Noop, { cycles = 606; committed = 2002; iq_banks_on_sum = 2215; iq_wakeups_gated = 62022; iq_scan_entries = 16166; iq_wakeups_suppressed = 0; regions = 4 });
    ("crafty", Technique.Extension, { cycles = 608; committed = 2003; iq_banks_on_sum = 2298; iq_wakeups_gated = 64373; iq_scan_entries = 16852; iq_wakeups_suppressed = 0; regions = 4 });
    ("crafty", Technique.Improved, { cycles = 608; committed = 2003; iq_banks_on_sum = 2298; iq_wakeups_gated = 64373; iq_scan_entries = 16852; iq_wakeups_suppressed = 0; regions = 4 });
    ("crafty", Technique.Abella, { cycles = 608; committed = 2003; iq_banks_on_sum = 2298; iq_wakeups_gated = 64373; iq_scan_entries = 16852; iq_wakeups_suppressed = 0; regions = 4 });
    ("parser", Technique.Baseline, { cycles = 1476; committed = 2001; iq_banks_on_sum = 2456; iq_wakeups_gated = 18291; iq_scan_entries = 13965; iq_wakeups_suppressed = 0; regions = 6 });
    ("parser", Technique.Noop, { cycles = 1379; committed = 2001; iq_banks_on_sum = 2506; iq_wakeups_gated = 21449; iq_scan_entries = 15531; iq_wakeups_suppressed = 0; regions = 6 });
    ("parser", Technique.Extension, { cycles = 1476; committed = 2001; iq_banks_on_sum = 2443; iq_wakeups_gated = 17984; iq_scan_entries = 13809; iq_wakeups_suppressed = 0; regions = 6 });
    ("parser", Technique.Improved, { cycles = 1476; committed = 2001; iq_banks_on_sum = 2443; iq_wakeups_gated = 17984; iq_scan_entries = 13809; iq_wakeups_suppressed = 0; regions = 6 });
    ("parser", Technique.Abella, { cycles = 1476; committed = 2001; iq_banks_on_sum = 2456; iq_wakeups_gated = 18291; iq_scan_entries = 13965; iq_wakeups_suppressed = 0; regions = 6 });
    ("perlbmk", Technique.Baseline, { cycles = 2275; committed = 2005; iq_banks_on_sum = 3612; iq_wakeups_gated = 8429; iq_scan_entries = 31498; iq_wakeups_suppressed = 0; regions = 20 });
    ("perlbmk", Technique.Noop, { cycles = 2343; committed = 2004; iq_banks_on_sum = 3282; iq_wakeups_gated = 6209; iq_scan_entries = 25026; iq_wakeups_suppressed = 0; regions = 20 });
    ("perlbmk", Technique.Extension, { cycles = 2275; committed = 2005; iq_banks_on_sum = 3368; iq_wakeups_gated = 7511; iq_scan_entries = 26497; iq_wakeups_suppressed = 0; regions = 20 });
    ("perlbmk", Technique.Improved, { cycles = 2275; committed = 2005; iq_banks_on_sum = 3368; iq_wakeups_gated = 7511; iq_scan_entries = 26497; iq_wakeups_suppressed = 0; regions = 20 });
    ("perlbmk", Technique.Abella, { cycles = 2277; committed = 2005; iq_banks_on_sum = 3555; iq_wakeups_gated = 8274; iq_scan_entries = 30230; iq_wakeups_suppressed = 0; regions = 20 });
    ("gap", Technique.Baseline, { cycles = 1380; committed = 2006; iq_banks_on_sum = 8836; iq_wakeups_gated = 76384; iq_scan_entries = 82832; iq_wakeups_suppressed = 0; regions = 6 });
    ("gap", Technique.Noop, { cycles = 1433; committed = 2006; iq_banks_on_sum = 8584; iq_wakeups_gated = 72602; iq_scan_entries = 75162; iq_wakeups_suppressed = 0; regions = 6 });
    ("gap", Technique.Extension, { cycles = 1425; committed = 2006; iq_banks_on_sum = 8658; iq_wakeups_gated = 74314; iq_scan_entries = 76071; iq_wakeups_suppressed = 0; regions = 6 });
    ("gap", Technique.Improved, { cycles = 1425; committed = 2006; iq_banks_on_sum = 8658; iq_wakeups_gated = 74314; iq_scan_entries = 76071; iq_wakeups_suppressed = 0; regions = 6 });
    ("gap", Technique.Abella, { cycles = 1386; committed = 2006; iq_banks_on_sum = 8689; iq_wakeups_gated = 76215; iq_scan_entries = 82027; iq_wakeups_suppressed = 0; regions = 6 });
    ("vortex", Technique.Baseline, { cycles = 2591; committed = 2000; iq_banks_on_sum = 13924; iq_wakeups_gated = 60367; iq_scan_entries = 142241; iq_wakeups_suppressed = 0; regions = 15 });
    ("vortex", Technique.Noop, { cycles = 3068; committed = 2000; iq_banks_on_sum = 11930; iq_wakeups_gated = 37981; iq_scan_entries = 115506; iq_wakeups_suppressed = 0; regions = 15 });
    ("vortex", Technique.Extension, { cycles = 2998; committed = 2000; iq_banks_on_sum = 12068; iq_wakeups_gated = 38409; iq_scan_entries = 116937; iq_wakeups_suppressed = 0; regions = 15 });
    ("vortex", Technique.Improved, { cycles = 2998; committed = 2000; iq_banks_on_sum = 12068; iq_wakeups_gated = 38409; iq_scan_entries = 116937; iq_wakeups_suppressed = 0; regions = 15 });
    ("vortex", Technique.Abella, { cycles = 2603; committed = 2000; iq_banks_on_sum = 13368; iq_wakeups_gated = 55867; iq_scan_entries = 134680; iq_wakeups_suppressed = 0; regions = 15 });
    ("bzip2", Technique.Baseline, { cycles = 1648; committed = 2002; iq_banks_on_sum = 6580; iq_wakeups_gated = 22837; iq_scan_entries = 67652; iq_wakeups_suppressed = 0; regions = 8 });
    ("bzip2", Technique.Noop, { cycles = 1671; committed = 2003; iq_banks_on_sum = 6171; iq_wakeups_gated = 22405; iq_scan_entries = 61975; iq_wakeups_suppressed = 0; regions = 8 });
    ("bzip2", Technique.Extension, { cycles = 1648; committed = 2002; iq_banks_on_sum = 6260; iq_wakeups_gated = 21604; iq_scan_entries = 64256; iq_wakeups_suppressed = 0; regions = 8 });
    ("bzip2", Technique.Improved, { cycles = 1648; committed = 2002; iq_banks_on_sum = 6260; iq_wakeups_gated = 21604; iq_scan_entries = 64256; iq_wakeups_suppressed = 0; regions = 8 });
    ("bzip2", Technique.Abella, { cycles = 1667; committed = 2002; iq_banks_on_sum = 6273; iq_wakeups_gated = 21886; iq_scan_entries = 65512; iq_wakeups_suppressed = 0; regions = 8 });
    ("twolf", Technique.Baseline, { cycles = 2808; committed = 2003; iq_banks_on_sum = 11077; iq_wakeups_gated = 80380; iq_scan_entries = 104003; iq_wakeups_suppressed = 0; regions = 4 });
    ("twolf", Technique.Noop, { cycles = 2817; committed = 2000; iq_banks_on_sum = 11478; iq_wakeups_gated = 83849; iq_scan_entries = 108050; iq_wakeups_suppressed = 0; regions = 4 });
    ("twolf", Technique.Extension, { cycles = 2845; committed = 2000; iq_banks_on_sum = 11296; iq_wakeups_gated = 78843; iq_scan_entries = 106167; iq_wakeups_suppressed = 0; regions = 4 });
    ("twolf", Technique.Improved, { cycles = 2845; committed = 2000; iq_banks_on_sum = 11296; iq_wakeups_gated = 78843; iq_scan_entries = 106167; iq_wakeups_suppressed = 0; regions = 4 });
    ("twolf", Technique.Abella, { cycles = 2800; committed = 2003; iq_banks_on_sum = 10805; iq_wakeups_gated = 76769; iq_scan_entries = 102935; iq_wakeups_suppressed = 0; regions = 4 });
  ]

let budget = 2_000

let test_golden () =
  let runner =
    Sdiq_harness.Runner.create ~budget ~benches:(Sdiq_workloads.Suite.tiny ())
      ()
  in
  Sdiq_harness.Runner.run_all runner;
  List.iter
    (fun (name, tech, e) ->
      let s = Sdiq_harness.Runner.run runner name tech in
      let where what = name ^ "/" ^ Technique.name tech ^ " " ^ what in
      Alcotest.(check int) (where "cycles") e.cycles s.Sdiq_cpu.Stats.cycles;
      Alcotest.(check int)
        (where "committed")
        e.committed s.Sdiq_cpu.Stats.committed;
      Alcotest.(check int)
        (where "iq_banks_on_sum")
        e.iq_banks_on_sum s.Sdiq_cpu.Stats.iq_banks_on_sum;
      Alcotest.(check int)
        (where "iq_wakeups_gated")
        e.iq_wakeups_gated s.Sdiq_cpu.Stats.iq_wakeups_gated;
      Alcotest.(check int)
        (where "iq_scan_entries")
        e.iq_scan_entries s.Sdiq_cpu.Stats.iq_scan_entries;
      Alcotest.(check int)
        (where "iq_wakeups_suppressed")
        e.iq_wakeups_suppressed s.Sdiq_cpu.Stats.iq_wakeups_suppressed;
      let bench = Sdiq_harness.Runner.find_bench runner name in
      Alcotest.(check int) (where "regions") e.regions
        (Sdiq_obs.Region.count
           (Sdiq_obs.Region.build (Technique.recipe tech)
              bench.Sdiq_workloads.Bench.prog)))
    golden

let test_covers_full_grid () =
  let benches = List.length (Sdiq_workloads.Suite.tiny ()) in
  let techs = List.length Technique.all in
  Alcotest.(check int) "one golden row per (bench x technique)"
    (benches * techs) (List.length golden)

let suite =
  [
    Alcotest.test_case "golden stats snapshot (fig6 suite)" `Quick test_golden;
    Alcotest.test_case "snapshot covers the full grid" `Quick
      test_covers_full_grid;
  ]
