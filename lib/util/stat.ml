(* Running statistics accumulators used by the simulator and the harness. *)

type t = {
  mutable n : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; sum = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n

let sum t = t.sum

let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let min_value t = if t.n = 0 then 0. else t.min

let max_value t = if t.n = 0 then 0. else t.max

let reset t =
  t.n <- 0;
  t.sum <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity

(* Percentage change from [base] to [v]: positive means a reduction. *)
let pct_reduction ~base v = if base = 0. then 0. else (base -. v) /. base *. 100.

let mean_of list =
  match list with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. list /. float_of_int (List.length list)
