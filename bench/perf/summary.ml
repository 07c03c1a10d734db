type t = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  if Array.length xs = 0 then invalid_arg "Summary.median: empty sample";
  median_sorted (sorted xs)

(* Python's statistics.quantiles, method="exclusive", n=4:
   m = len + 1; j = i*m // 4 clamped to [1, len-1];
   q_i = (d[j-1] * (4 - delta) + d[j] * delta) / 4, delta = i*m - 4j. *)
let quartiles_sorted a =
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)
  end

let quartiles xs =
  if Array.length xs = 0 then invalid_arg "Summary.quartiles: empty sample";
  quartiles_sorted (sorted xs)

let of_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_array: empty sample";
  let a = sorted xs in
  let q1, q3 = quartiles_sorted a in
  { n; median = median_sorted a; q1; q3; min = a.(0); max = a.(n - 1) }

let rel_spread s =
  if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* The epsilon absorbs decimal percentiles' binary rounding:
   99.9% of 10000 must rank 9990, not 9991. *)
let rank n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  (sorted xs).(min n (rank n p) - 1)

let tail_percentile n =
  List.fold_left
    (fun best p -> if n - rank n p >= 10 then p else best)
    50. [ 50.; 75.; 90.; 95.; 99.; 99.9 ]
