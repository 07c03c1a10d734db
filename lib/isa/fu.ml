(* Functional-unit classes, matching Table 1 of the paper:
     6 integer ALUs (1 cycle), 3 integer multipliers (3 cycles; integer
     division also runs on the multiplier), 4 FP ALUs (2 cycles), 2 FP
     mult/div units (4-cycle multiply, 12-cycle divide).
   Memory operations additionally occupy one of the memory ports for address
   generation; the cache access latency is added on top by the pipeline. *)

type t =
  | Int_alu
  | Int_mul
  | Fp_alu
  | Fp_muldiv
  | Mem_port

let all = [ Int_alu; Int_mul; Fp_alu; Fp_muldiv; Mem_port ]

let index = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Fp_alu -> 2
  | Fp_muldiv -> 3
  | Mem_port -> 4

let count_classes = 5

(* Default unit counts from Table 1 (memory ports are a SimpleScalar-style
   addition; the paper does not list them, we use the sim-outorder default
   of 2). *)
let default_count = function
  | Int_alu -> 6
  | Int_mul -> 3
  | Fp_alu -> 4
  | Fp_muldiv -> 2
  | Mem_port -> 2

