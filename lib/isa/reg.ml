(* Architectural registers: 32 integer and 32 floating-point.

   Integer register 0 is hardwired to zero, as in MIPS/Alpha: writes to it
   are discarded and it never creates a data dependence. *)

type t =
  | Int of int
  | Fp of int

let num_int = 32
let num_fp = 32

let int i =
  if i < 0 || i >= num_int then invalid_arg "Reg.int: out of range";
  Int i

let fp i =
  if i < 0 || i >= num_fp then invalid_arg "Reg.fp: out of range";
  Fp i

let zero = Int 0

let is_zero = function Int 0 -> true | Int _ | Fp _ -> false

(* Dense index over the whole architectural register space: integer registers
   first, then floating point. Used for renaming tables. *)
let dense = function Int i -> i | Fp i -> num_int + i

let count = num_int + num_fp

let of_dense i =
  if i < 0 || i >= count then invalid_arg "Reg.of_dense";
  if i < num_int then Int i else Fp (i - num_int)

let equal a b =
  match (a, b) with
  | Int i, Int j | Fp i, Fp j -> i = j
  | Int _, Fp _ | Fp _, Int _ -> false

let pp ppf = function
  | Int i -> Fmt.pf ppf "r%d" i
  | Fp i -> Fmt.pf ppf "f%d" i

let to_string r = Fmt.str "%a" pp r
