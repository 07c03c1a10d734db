(* Tests for the tooling layers: energy breakdowns, timelines, and the
   report/simulate plumbing they rely on. *)

module Breakdown = Sdiq_power.Breakdown
module Timeline = Sdiq_harness.Timeline

let crafty () = Sdiq_workloads.W_crafty.build ~outer:3_000 ()

let run_stats () =
  let b = crafty () in
  Sdiq_cpu.Pipeline.run ~max_insns:8_000
    (Sdiq_harness.Technique.build Sdiq_harness.Technique.Baseline b)

let test_breakdown_shares_sum_to_100 () =
  let stats = run_stats () in
  let check (b : Breakdown.t) =
    let total_share =
      List.fold_left
        (fun acc (c : Breakdown.component) -> acc +. c.Breakdown.share_pct)
        0. b.Breakdown.components
    in
    Alcotest.(check (float 0.01)) "shares sum to 100" 100. total_share;
    Alcotest.(check bool) "total positive" true (b.Breakdown.total > 0.)
  in
  check (Breakdown.iq stats);
  check (Breakdown.int_rf stats)

let test_breakdown_component_consistency () =
  let stats = run_stats () in
  let b = Breakdown.iq stats in
  let sum =
    List.fold_left
      (fun acc (c : Breakdown.component) -> acc +. c.Breakdown.energy)
      0. b.Breakdown.components
  in
  Alcotest.(check (float 0.5)) "components sum to total" b.Breakdown.total sum;
  Alcotest.(check int) "nine IQ components" 9
    (List.length b.Breakdown.components)

let test_breakdown_wakeup_dominates_on_busy_queue () =
  (* With the default weights, the wakeup CAM should be the single largest
     IQ component on an ILP-heavy run — the Wattch-calibrated shape. *)
  let stats = run_stats () in
  let b = Breakdown.iq stats in
  let wakeup =
    List.find (fun c -> c.Breakdown.label = "wakeup CAM") b.Breakdown.components
  in
  List.iter
    (fun (c : Breakdown.component) ->
      Alcotest.(check bool)
        ("wakeup >= " ^ c.Breakdown.label)
        true
        (wakeup.Breakdown.share_pct >= c.Breakdown.share_pct))
    b.Breakdown.components

let test_timeline_records_samples () =
  let t =
    Timeline.record ~interval:100 ~max_insns:6_000 (crafty ())
      Sdiq_harness.Technique.Baseline
  in
  Alcotest.(check bool) "several samples" true (List.length t.Timeline.samples > 5);
  (* Samples are cycle-monotone. *)
  let rec mono = function
    | (a : Timeline.sample) :: (b : Timeline.sample) :: rest ->
      a.Timeline.cycle < b.Timeline.cycle && mono (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone cycles" true (mono t.Timeline.samples);
  List.iter
    (fun (s : Timeline.sample) ->
      Alcotest.(check bool) "occupancy bounded" true
        (s.Timeline.iq_occupancy >= 0 && s.Timeline.iq_occupancy <= 80);
      Alcotest.(check bool) "banks bounded" true
        (s.Timeline.iq_banks_on >= 0 && s.Timeline.iq_banks_on <= 10))
    t.Timeline.samples

let test_timeline_software_limit_tracks_annotations () =
  let t =
    Timeline.record ~interval:50 ~max_insns:6_000 (crafty ())
      Sdiq_harness.Technique.Extension
  in
  (* Once inside the hot loop the limit must be a finite annotation value,
     not the wide-open initial window. *)
  let finite =
    List.filter (fun s -> s.Timeline.policy_limit <= 80) t.Timeline.samples
  in
  Alcotest.(check bool) "limits settle to annotation values" true
    (List.length finite > List.length t.Timeline.samples / 2)

let test_timeline_csv_well_formed () =
  let t =
    Timeline.record ~interval:200 ~max_insns:4_000 (crafty ())
      Sdiq_harness.Technique.Baseline
  in
  let csv = Timeline.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one line per sample"
    (1 + List.length t.Timeline.samples)
    (List.length lines);
  let header = List.hd lines in
  Alcotest.(check string) "header"
    "cycle,committed,iq_occupancy,iq_banks_on,iq_active_size,policy_limit,rf_live"
    header;
  List.iter
    (fun line ->
      Alcotest.(check int) "seven fields" 7
        (List.length (String.split_on_char ',' line)))
    (List.tl lines)

let test_timeline_abella_active_size_changes () =
  (* Under the adaptive policy the physical ring size must actually move
     at least once on a phase-y benchmark. *)
  let t =
    Timeline.record ~interval:100 ~max_insns:15_000
      (Sdiq_workloads.W_parser.build ~outer:15_000 ())
      Sdiq_harness.Technique.Abella
  in
  let sizes =
    List.sort_uniq compare
      (List.map (fun s -> s.Timeline.iq_active_size) t.Timeline.samples)
  in
  Alcotest.(check bool) "ring resized at least once" true
    (List.length sizes >= 2)

let suite =
  [
    Alcotest.test_case "breakdown shares sum to 100" `Quick
      test_breakdown_shares_sum_to_100;
    Alcotest.test_case "breakdown component consistency" `Quick
      test_breakdown_component_consistency;
    Alcotest.test_case "wakeup dominates busy queue" `Quick
      test_breakdown_wakeup_dominates_on_busy_queue;
    Alcotest.test_case "timeline records samples" `Quick
      test_timeline_records_samples;
    Alcotest.test_case "timeline software limits" `Quick
      test_timeline_software_limit_tracks_annotations;
    Alcotest.test_case "timeline csv well-formed" `Quick
      test_timeline_csv_well_formed;
    Alcotest.test_case "timeline abella resizes" `Quick
      test_timeline_abella_active_size_changes;
  ]
