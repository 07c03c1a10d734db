(* Tests for the power model: accounting identities, ordering between the
   naive / nonEmpty / gated views, and savings arithmetic. *)

module Stats = Sdiq_cpu.Stats
module Config = Sdiq_cpu.Config
module Params = Sdiq_power.Params
module Iq_power = Sdiq_power.Iq_power
module Rf_power = Sdiq_power.Rf_power
module Report = Sdiq_power.Report

(* A synthetic stats record with controlled counts. *)
let mk_stats ~cycles ~wake_gated ~wake_nonempty ~wake_naive ~banks_on_sum () =
  let s = Stats.create () in
  s.Stats.cycles <- cycles;
  s.Stats.committed <- cycles * 2;
  s.Stats.iq_wakeups_gated <- wake_gated;
  s.Stats.iq_wakeups_nonempty <- wake_nonempty;
  s.Stats.iq_wakeups_naive <- wake_naive;
  s.Stats.iq_dispatch_ram_writes <- cycles;
  s.Stats.iq_dispatch_cam_writes <- cycles * 2;
  s.Stats.iq_issue_reads <- cycles;
  s.Stats.iq_selects <- cycles;
  s.Stats.iq_banks_on_sum <- banks_on_sum;
  s.Stats.int_rf_reads <- cycles * 3;
  s.Stats.int_rf_writes <- cycles * 2;
  s.Stats.int_rf_banks_on_sum <- cycles * 7;
  s

let base_stats () =
  mk_stats ~cycles:1000 ~wake_gated:4000 ~wake_nonempty:9000
    ~wake_naive:160_000 ~banks_on_sum:9000 ()

let test_energy_ordering () =
  let p = Params.default and cfg = Config.default in
  let s = base_stats () in
  let naive = Iq_power.naive p cfg s in
  let gated = Iq_power.gated p cfg s in
  let tech = Iq_power.technique p s in
  Alcotest.(check bool) "gated < naive" true
    (gated.Iq_power.dynamic < naive.Iq_power.dynamic);
  Alcotest.(check bool) "technique < gated" true
    (tech.Iq_power.dynamic < gated.Iq_power.dynamic);
  Alcotest.(check bool) "technique static < naive static" true
    (tech.Iq_power.static_ < naive.Iq_power.static_)

let test_static_proportional_to_banks () =
  let p = Params.default in
  let s1 = mk_stats ~cycles:1000 ~wake_gated:0 ~wake_nonempty:0 ~wake_naive:0
      ~banks_on_sum:5000 () in
  let s2 = mk_stats ~cycles:1000 ~wake_gated:0 ~wake_nonempty:0 ~wake_naive:0
      ~banks_on_sum:10000 () in
  let e1 = Iq_power.technique p s1 and e2 = Iq_power.technique p s2 in
  Alcotest.(check (float 1e-6)) "static scales linearly" 2.0
    (e2.Iq_power.static_ /. e1.Iq_power.static_)

let test_report_zero_for_identical_runs () =
  let s = base_stats () in
  let tech = base_stats () in
  (* The technique run saves only via gating vs the naive baseline; with
     all banks on and equal cycles, static saving is the banks ratio. *)
  let r = Report.compute ~base:s tech in
  Alcotest.(check (float 1e-6)) "no IPC loss" 0. r.Report.ipc_loss_pct;
  Alcotest.(check (float 1e-6)) "no occupancy change" 0.
    r.Report.iq_occupancy_reduction_pct

let test_report_ipc_loss_sign () =
  let base = base_stats () in
  let tech = base_stats () in
  tech.Stats.cycles <- 1100; (* same work, more cycles: a loss *)
  let r = Report.compute ~base tech in
  Alcotest.(check bool) "positive loss" true (r.Report.ipc_loss_pct > 0.)

let test_non_empty_between_zero_and_hundred () =
  let s = base_stats () in
  let v = Report.non_empty_dynamic_saving s in
  Alcotest.(check bool) "sane percentage" true (v > 0. && v < 100.)

let test_rf_gating_saves () =
  let p = Params.default and cfg = Config.default in
  let s = base_stats () in
  let all_on = Rf_power.int_baseline p cfg s in
  let gated = Rf_power.int_gated p s in
  (* banks_on_sum = 7 banks avg of 14: half the bank energy. *)
  Alcotest.(check bool) "gated dynamic below baseline" true
    (gated.Rf_power.dynamic < all_on.Rf_power.dynamic);
  Alcotest.(check (float 1e-6)) "static halves" 0.5
    (gated.Rf_power.static_ /. all_on.Rf_power.static_)

(* End-to-end: a real simulation's counters satisfy the accounting
   invariants the model depends on. *)
let test_simulation_counter_invariants () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:2_000 () in
  let stats =
    Sdiq_cpu.Pipeline.run ~max_insns:10_000
      (Sdiq_harness.Technique.build Sdiq_harness.Technique.Baseline bench)
  in
  Alcotest.(check bool) "gated <= nonempty" true
    (stats.Stats.iq_wakeups_gated <= stats.Stats.iq_wakeups_nonempty);
  Alcotest.(check bool) "nonempty <= naive" true
    (stats.Stats.iq_wakeups_nonempty <= stats.Stats.iq_wakeups_naive);
  Alcotest.(check int) "naive = 2 * size * broadcasts"
    (2 * 80 * stats.Stats.iq_broadcasts)
    stats.Stats.iq_wakeups_naive;
  Alcotest.(check bool) "banks_on_sum bounded" true
    (stats.Stats.iq_banks_on_sum <= 10 * stats.Stats.cycles);
  Alcotest.(check bool) "issue reads = selects" true
    (stats.Stats.iq_issue_reads = stats.Stats.iq_selects);
  Alcotest.(check bool) "dispatched >= committed - inflight" true
    (stats.Stats.dispatched >= stats.Stats.committed)

let test_savings_end_to_end_positive () =
  let bench = Sdiq_workloads.W_gzip.build ~outer:3_000 () in
  let runner =
    Sdiq_harness.Runner.create ~budget:15_000 ~benches:[ bench ] ()
  in
  let s = Sdiq_harness.Runner.savings runner "gzip" Sdiq_harness.Technique.Noop in
  Alcotest.(check bool) "dynamic savings positive" true
    (s.Report.iq_dynamic_saving_pct > 0.);
  Alcotest.(check bool) "static savings positive" true
    (s.Report.iq_static_saving_pct > 0.);
  Alcotest.(check bool) "savings below 100%" true
    (s.Report.iq_dynamic_saving_pct < 100.)

(* Each IQ energy view priced by hand: a zero record with one counter
   set must cost exactly that counter times its [Params] weight in every
   view that charges it, and nothing in a view that must ignore it (e.g.
   [technique] ignores [iq_wakeups_nonempty]). The loose orderings above
   pass even when a term is dropped or charged to the wrong counter. *)
let test_iq_views_priced_by_hand () =
  let p = Params.default and cfg = Config.default in
  let banks = float_of_int (Config.iq_banks cfg) in
  let none = (0., 0., 0.) and all w = (w, w, w) in
  (* counter, setter, per-unit (naive, gated, technique) dynamic and
     static weights *)
  let counters =
    [
      ( "iq_wakeups_naive",
        (fun s v -> s.Stats.iq_wakeups_naive <- v),
        (p.Params.e_wakeup, 0., 0.),
        none );
      ( "iq_wakeups_nonempty",
        (fun s v -> s.Stats.iq_wakeups_nonempty <- v),
        (0., p.Params.e_wakeup, 0.),
        none );
      ( "iq_wakeups_gated",
        (fun s v -> s.Stats.iq_wakeups_gated <- v),
        (0., 0., p.Params.e_wakeup),
        none );
      ( "iq_dispatch_cam_writes",
        (fun s v -> s.Stats.iq_dispatch_cam_writes <- v),
        all p.Params.e_cam_write,
        none );
      ( "iq_dispatch_ram_writes",
        (fun s v -> s.Stats.iq_dispatch_ram_writes <- v),
        all p.Params.e_ram_write,
        none );
      ( "iq_issue_reads",
        (fun s v -> s.Stats.iq_issue_reads <- v),
        all p.Params.e_ram_read,
        none );
      ( "iq_selects",
        (fun s v -> s.Stats.iq_selects <- v),
        all p.Params.e_select,
        none );
      ( "iq_scan_entries",
        (fun s v -> s.Stats.iq_scan_entries <- v),
        all p.Params.e_scan_entry,
        none );
      ( "squashed",
        (fun s v -> s.Stats.squashed <- v),
        all p.Params.e_squash_entry,
        none );
      (* naive and gated keep every bank powered on every cycle *)
      ( "cycles",
        (fun s v -> s.Stats.cycles <- v),
        ( banks *. p.Params.e_iq_bank_cycle,
          banks *. p.Params.e_iq_bank_cycle,
          0. ),
        ( banks *. p.Params.iq_leak_bank_cycle,
          banks *. p.Params.iq_leak_bank_cycle,
          0. ) );
      ( "iq_banks_on_sum",
        (fun s v -> s.Stats.iq_banks_on_sum <- v),
        (0., 0., p.Params.e_iq_bank_cycle),
        (0., 0., p.Params.iq_leak_bank_cycle) );
      (* counted, but priced by no IQ view *)
      ( "iq_occupancy_sum",
        (fun s v -> s.Stats.iq_occupancy_sum <- v),
        none,
        none );
      ("iq_broadcasts", (fun s v -> s.Stats.iq_broadcasts <- v), none, none);
      ( "iq_wakeups_suppressed",
        (fun s v -> s.Stats.iq_wakeups_suppressed <- v),
        none,
        none );
      ("squashes", (fun s v -> s.Stats.squashes <- v), none, none);
      ("dispatched", (fun s v -> s.Stats.dispatched <- v), none, none);
      ("committed", (fun s v -> s.Stats.committed <- v), none, none);
    ]
  in
  List.iteri
    (fun i (name, set, (dn, dg, dt), (sn, sg, st)) ->
      let v = 1009 + (37 * i) in
      let s = Stats.create () in
      set s v;
      let x = float_of_int v in
      let check view (e : Iq_power.energy) dynamic static_ =
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s = %d: %s dynamic" name v view)
          (x *. dynamic) e.Iq_power.dynamic;
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s = %d: %s static" name v view)
          (x *. static_) e.Iq_power.static_
      in
      check "naive" (Iq_power.naive p cfg s) dn sn;
      check "gated" (Iq_power.gated p cfg s) dg sg;
      check "technique" (Iq_power.technique p s) dt st)
    counters

(* A hand-built report with growths and savings: each change prints with
   one sign of its own, so a growth reads "+" and a saving "-", never
   "--". *)
let test_report_pp_signs () =
  let r =
    {
      Report.ipc_loss_pct = -1.5;
      iq_occupancy_reduction_pct = -16.;
      iq_dynamic_saving_pct = 71.7;
      iq_static_saving_pct = -0.4;
      iq_banks_off_pct = 52.8;
      rf_dynamic_saving_pct = -5.;
      rf_static_saving_pct = 9.7;
      dispatch_reduction_pct = 0.;
    }
  in
  Alcotest.(check string)
    "signed changes"
    "IPC loss -1.50%, IQ occ +16.0%, IQ dyn -71.7%, IQ static +0.4% (banks \
     off 52.8%), RF dyn +5.0%, RF static -9.7%"
    (Fmt.str "%a" Report.pp r)

let suite =
  [
    Alcotest.test_case "energy ordering" `Quick test_energy_ordering;
    Alcotest.test_case "report prints each change with one sign" `Quick
      test_report_pp_signs;
    Alcotest.test_case "IQ views priced by hand, one counter at a time"
      `Quick test_iq_views_priced_by_hand;
    Alcotest.test_case "static proportional to banks" `Quick
      test_static_proportional_to_banks;
    Alcotest.test_case "identical runs: zero deltas" `Quick
      test_report_zero_for_identical_runs;
    Alcotest.test_case "ipc loss sign" `Quick test_report_ipc_loss_sign;
    Alcotest.test_case "nonEmpty in range" `Quick
      test_non_empty_between_zero_and_hundred;
    Alcotest.test_case "rf gating saves" `Quick test_rf_gating_saves;
    Alcotest.test_case "simulation counter invariants" `Quick
      test_simulation_counter_invariants;
    Alcotest.test_case "end-to-end savings positive" `Quick
      test_savings_end_to_end_positive;
  ]
