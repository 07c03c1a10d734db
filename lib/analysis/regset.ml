(* Compact register sets: one bit per register, one word per file. Both
   files have 32 registers, so each mask fits comfortably in an OCaml
   integer. *)

open Sdiq_isa

type t = {
  ints : int;
  fps : int;
}

let empty = { ints = 0; fps = 0 }

let full =
  { ints = (1 lsl Reg.num_int) - 1; fps = (1 lsl Reg.num_fp) - 1 }

let add r t =
  match r with
  | Reg.Int i -> { t with ints = t.ints lor (1 lsl i) }
  | Reg.Fp i -> { t with fps = t.fps lor (1 lsl i) }

let remove r t =
  match r with
  | Reg.Int i -> { t with ints = t.ints land lnot (1 lsl i) }
  | Reg.Fp i -> { t with fps = t.fps land lnot (1 lsl i) }

let mem r t =
  match r with
  | Reg.Int i -> t.ints land (1 lsl i) <> 0
  | Reg.Fp i -> t.fps land (1 lsl i) <> 0

(* Membership by {!Reg.dense} index, without building the register. *)
let mem_dense i t =
  if i < Reg.num_int then t.ints land (1 lsl i) <> 0
  else t.fps land (1 lsl (i - Reg.num_int)) <> 0

let union a b = { ints = a.ints lor b.ints; fps = a.fps lor b.fps }
let inter a b = { ints = a.ints land b.ints; fps = a.fps land b.fps }

let diff a b =
  { ints = a.ints land lnot b.ints; fps = a.fps land lnot b.fps }

let equal a b = a.ints = b.ints && a.fps = b.fps
let is_empty t = t.ints = 0 && t.fps = 0

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let int_card t = popcount t.ints
let fp_card t = popcount t.fps
let cardinal t = int_card t + fp_card t

let elements t =
  let file n mask make =
    List.filter_map
      (fun i -> if mask land (1 lsl i) <> 0 then Some (make i) else None)
      (List.init n (fun i -> i))
  in
  file Reg.num_int t.ints Reg.int @ file Reg.num_fp t.fps Reg.fp

let of_list rs = List.fold_left (fun acc r -> add r acc) empty rs

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma Reg.pp) (elements t)
