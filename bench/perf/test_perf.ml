(* The benchmark's statistics: order statistics (checked against Python's
   statistics.quantiles, which the spread check of BENCHMARK.json uses),
   the tail-percentile rule, and the paired-run verdicts. *)

module Summary = Sdiq_perf.Summary
module Verdict = Sdiq_perf.Verdict

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3. (Summary.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 2.5 (Summary.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "single" 7. (Summary.median [| 7. |])

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Summary.quartiles xs in
  Alcotest.(check (pair close close)) "1..5" (1.5, 4.5) (q [| 5.; 4.; 3.; 2.; 1. |]);
  Alcotest.(check (pair close close)) "1..10" (2.75, 8.25)
    (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (pair close close)) "two samples" (0.5, 3.5) (q [| 3.; 1. |]);
  Alcotest.(check (pair close close)) "four" (12.5, 37.5) (q [| 40.; 10.; 30.; 20. |]);
  Alcotest.(check (pair close close)) "one sample" (2., 2.) (q [| 2. |])

let test_summary () =
  let s = Summary.of_array [| 3.; 1.; 2.; 5.; 4. |] in
  Alcotest.(check int) "n" 5 s.Summary.n;
  Alcotest.check close "min" 1. s.Summary.min;
  Alcotest.check close "max" 5. s.Summary.max;
  Alcotest.check close "median" 3. s.Summary.median;
  Alcotest.check close "spread" 1. (Summary.rel_spread s);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty sample")
    (fun () -> ignore (Summary.of_array [||]))

let test_tail_percentile () =
  let check n expected =
    Alcotest.check close (Printf.sprintf "n=%d" n) expected (Summary.tail_percentile n)
  in
  check 5 50.;
  check 19 50.;
  check 40 75.;
  check 55 75.;
  check 66 75.;
  check 100 90.;
  check 199 90.;
  check 200 95.;
  check 1000 99.;
  check 6000 99.;
  check 10_000 99.9;
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 nearest rank" 5. (Summary.percentile xs 50.);
  Alcotest.check close "p90 nearest rank" 9. (Summary.percentile xs 90.);
  Alcotest.check close "p100 is max" 10. (Summary.percentile xs 100.)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.name v))
    ( = )

(* Ten parent runs around 10 with a 2% inter-quartile spread. *)
let parent = [| 9.9; 10.0; 10.1; 9.95; 10.05; 10.0; 9.9; 10.1; 10.0; 10.05 |]
let scaled k = Array.map (fun x -> x *. k) parent

let test_verdicts () =
  let decide ?(better = Verdict.Lower) ?(bound = 0.1) change =
    Verdict.decide ~better ~bound ~parent ~change
  in
  Alcotest.check verdict "faster everywhere" Verdict.Improved (decide (scaled 0.8));
  Alcotest.check verdict "same runs" Verdict.Unchanged (decide parent);
  Alcotest.check verdict "within bound" Verdict.Unchanged (decide (scaled 1.05));
  Alcotest.check verdict "past bound" Verdict.Regressed (decide (scaled 1.2));
  Alcotest.check verdict "higher is better" Verdict.Regressed
    (decide ~better:Verdict.Higher (scaled 0.8));
  Alcotest.check verdict "higher is better, improved" Verdict.Improved
    (decide ~better:Verdict.Higher (scaled 1.2));
  Alcotest.check verdict "too few pairs" Verdict.Unresolved
    (Verdict.decide ~better:Verdict.Lower ~bound:0.1 ~parent:(Array.sub parent 0 9)
       ~change:(Array.sub (scaled 0.5) 0 9));
  (* A parent whose own spread exceeds the bound cannot show "unchanged". *)
  let noisy = [| 6.; 14.; 8.; 12.; 10.; 7.; 13.; 9.; 11.; 10. |] in
  Alcotest.check verdict "spread wider than bound" Verdict.Unresolved
    (Verdict.decide ~better:Verdict.Lower ~bound:0.1 ~parent:noisy
       ~change:(Array.map (fun x -> x *. 1.02) (Array.of_list (List.rev (Array.to_list noisy)))));
  (* ...unless every change run reads better than every parent run. *)
  Alcotest.check verdict "separated despite spread" Verdict.Unchanged
    (Verdict.decide ~better:Verdict.Lower ~bound:0.1 ~parent:noisy
       ~change:(Array.map (fun x -> 5.9 +. (x /. 1000.)) noisy))

let () =
  Alcotest.run "perf"
    [
      ( "summary",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "summary fields and n" `Quick test_summary;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
        ] );
      ("verdict", [ Alcotest.test_case "paired-run verdicts" `Quick test_verdicts ]);
    ]
