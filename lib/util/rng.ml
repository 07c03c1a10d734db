(* Deterministic pseudo-random number generator (splitmix64).

   Every source of randomness in the repository goes through this module so
   that workloads, tests and benchmarks are exactly reproducible from a seed.
   The generator is the splitmix64 finaliser, which has good statistical
   quality for the modest demands made here (workload data generation). *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* One splitmix64 step: advance by the golden-gamma and finalise. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative int in [0, 2^62). *)
let next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* True with probability [p]. *)
let chance t p = float_of_int (int t 1_000_000) /. 1_000_000. < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

