(* Loop trip-count bounds from the counted-loop pattern.

   Soundness rests on three facts, each checked statically:

   1. The counter is stepped by a fixed constant exactly once per
      iteration: it has a single definition in the whole loop body
      (an [Addi r, r, c]), that definition's block lies on every
      enumerated header-to-latch path, and the enumeration was not
      truncated. Calls inside the body disqualify the counter unless
      the callee's may-def summary excludes it.

   2. The latch tests decide continuation on the counter: every back
      edge's source ends in a conditional branch over the counter, in
      one of the shapes below. Mid-loop exits only shorten the trip, so
      they need no inspection.

   3. The initial range comes from the interval environment joined over
      the loop's non-back-edge predecessors — sound for every entry to
      the loop. A loop whose header is the procedure entry block keeps
      no preheader fact (the boundary is top) and gets no bound. *)

open Sdiq_isa
module Cfg = Sdiq_cfg.Cfg
module Loops = Sdiq_cfg.Loops

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

(* May the instruction define [r]? Calls defer to the callee summary
   (opaque without one). *)
let may_define summaries (i : Instr.t) r =
  if i.Instr.op = Opcode.Call then
    match Hashtbl.find_opt summaries i.Instr.target with
    | Some (s : Interval.proc_summary) -> Regset.mem r s.Interval.may_defs
    | None -> true
  else match Instr.dest i with Some d -> Reg.equal d r | None -> false

(* A path enumeration this long is treated as truncated. *)
let max_paths = 64

let finite_lo = function
  | Interval.Bot -> None
  | Interval.Iv { lo; _ } -> if lo = min_int then None else Some lo

let finite_hi = function
  | Interval.Bot -> None
  | Interval.Iv { hi; _ } -> if hi = max_int then None else Some hi

let bound_of_loop ~summaries (prog : Prog.t) (cfg : Cfg.t)
    (intervals : Interval.solution) (loop : Loops.t) : int option =
  let header = cfg.Cfg.blocks.(loop.Loops.header) in
  let body_instrs =
    Loops.Iset.fold
      (fun id acc -> Cfg.instrs cfg cfg.Cfg.blocks.(id) @ acc)
      loop.Loops.body []
  in
  (* Candidate counters: a single in-body definition, an Addi r, r, c. *)
  let step_of r =
    let defs =
      List.filter (fun i -> may_define summaries i r) body_instrs
    in
    match defs with
    | [ i ]
      when i.Instr.op = Opcode.Addi
           && i.Instr.src1 = Some r
           && i.Instr.imm <> 0 -> Some i.Instr.imm
    | _ -> None
  in
  let invariant r =
    Reg.is_zero r
    || not (List.exists (fun i -> may_define summaries i r) body_instrs)
  in
  (* The step instruction's block, for the every-path check. *)
  let step_block r =
    let found = ref None in
    Array.iter
      (fun (blk : Cfg.block) ->
        if Loops.Iset.mem blk.Cfg.id loop.Loops.body then
          List.iter
            (fun (i : Instr.t) ->
              if
                i.Instr.op = Opcode.Addi
                && i.Instr.src1 = Some r
                && Instr.dest i = Some r
              then found := Some blk.Cfg.id)
            (Cfg.instrs cfg blk))
      cfg.Cfg.blocks;
    !found
  in
  let paths = Sdiq_core.Loop_need.loop_paths ~max_paths cfg loop in
  if paths = [] || List.length paths >= max_paths then None
  else
    (* Initial environment: join over the loop's outside predecessors.
       The header-as-entry case has the boundary flowing in — top. *)
    let preheader_value r =
      if loop.Loops.header = (Cfg.entry_block cfg).Cfg.id then Interval.top
      else
        List.fold_left
          (fun acc p ->
            if Loops.Iset.mem p loop.Loops.body then acc
            else Interval.hull acc (Interval.lookup intervals.Interval.exit.(p) r))
          Interval.bot
          (Cfg.preds cfg loop.Loops.header)
    in
    let value_of r =
      if Reg.is_zero r then Interval.const 0 else preheader_value r
    in
    (* One latch: the back-edge source's terminating branch, read as a
       continuation condition on candidate counter [r] with step [c]. *)
    let latch_bound src_id =
      let blk = cfg.Cfg.blocks.(src_id) in
      let term = Prog.instr prog blk.Cfg.last in
      if not (Instr.is_cond_branch term) then None
      else
        let to_header = term.Instr.target = header.Cfg.first in
        (* Degenerate latch: both edges re-enter the header, so the
           branch decides nothing — no bound. *)
        if to_header && blk.Cfg.last + 1 = header.Cfg.first then None
        else
        let s1 = term.Instr.src1 and s2 = term.Instr.src2 in
        let with_counter r other ~r_first =
          match step_of r with
          | None -> None
          | Some c ->
            if not (invariant other) then None
            else
              (* Truncation-free every-path occurrence of the step. *)
              let on_every_path =
                match step_block r with
                | None -> false
                | Some sb -> List.for_all (List.mem sb) paths
              in
              if not on_every_path then None
              else
                let r0 = value_of r in
                let k = value_of other in
                let continue_op =
                  (* The branch shape that re-enters the header. *)
                  match (term.Instr.op, to_header) with
                  | Opcode.Bne, true -> `Ne
                  | Opcode.Beq, false -> `Ne
                  | Opcode.Beq, true -> `Eq
                  | Opcode.Bne, false -> `Eq
                  | Opcode.Blt, true -> if r_first then `Lt else `Gt
                  | Opcode.Bge, false -> if r_first then `Lt else `Gt
                  | Opcode.Bge, true -> if r_first then `Ge else `Le
                  | Opcode.Blt, false -> if r_first then `Ge else `Le
                  | _ -> `Unknown
                in
                let margin t = Some (max 1 (t + 1)) in
                (match continue_op with
                | `Ne when Reg.is_zero other && c = -1 -> (
                  (* while r <> 0, r-- : needs r0 >= 0 *)
                  match (finite_lo r0, finite_hi r0) with
                  | Some lo, Some hi when lo >= 0 -> margin hi
                  | _ -> None)
                | `Ne when Reg.is_zero other && c = 1 -> (
                  (* while r <> 0, r++ : needs r0 <= 0 *)
                  match (finite_lo r0, finite_hi r0) with
                  | Some lo, Some hi when hi <= 0 -> margin (-lo)
                  | _ -> None)
                | `Lt when c >= 1 -> (
                  (* while r < k, r += c *)
                  match (finite_lo r0, finite_hi k) with
                  | Some lo, Some khi -> margin (ceil_div (khi - lo) c)
                  | _ -> None)
                | `Le when c >= 1 -> (
                  match (finite_lo r0, finite_hi k) with
                  | Some lo, Some khi -> margin (ceil_div (khi - lo + 1) c)
                  | _ -> None)
                | `Gt when c <= -1 -> (
                  (* while r > k, r -= |c| *)
                  match (finite_hi r0, finite_lo k) with
                  | Some hi, Some klo -> margin (ceil_div (hi - klo) (-c))
                  | _ -> None)
                | `Ge when c <= -1 -> (
                  match (finite_hi r0, finite_lo k) with
                  | Some hi, Some klo ->
                    margin (ceil_div (hi - klo + 1) (-c))
                  | _ -> None)
                | _ -> None)
        in
        match (s1, s2) with
        | Some r1, Some r2 -> (
          match with_counter r1 r2 ~r_first:true with
          | Some t -> Some t
          | None -> with_counter r2 r1 ~r_first:false)
        | _ -> None
    in
    let back_srcs =
      List.filter
        (fun p -> Loops.Iset.mem p loop.Loops.body)
        (Cfg.preds cfg loop.Loops.header)
    in
    if back_srcs = [] then None
    else
      (* Every back edge must be bounded; the loop's trip count is the
         largest of the per-latch bounds. *)
      List.fold_left
        (fun acc src ->
          match (acc, latch_bound src) with
          | Some a, Some b -> Some (max a b)
          | _ -> None)
        (Some 1) back_srcs

let of_solution ~summaries (prog : Prog.t) (cfg : Cfg.t)
    (intervals : Interval.solution) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun loop ->
      match bound_of_loop ~summaries prog cfg intervals loop with
      | Some t -> Hashtbl.replace tbl loop.Loops.header t
      | None -> ())
    (Loops.find cfg);
  tbl

let of_program (prog : Prog.t) =
  let solved = lazy (Interval.solve prog) in
  let cache = Hashtbl.create 16 in
  fun (proc : Prog.proc) ->
    match Hashtbl.find_opt cache proc.Prog.entry with
    | Some tbl -> tbl
    | None ->
      let { Interval.summaries; solutions } = Lazy.force solved in
      let tbl =
        match Hashtbl.find_opt solutions proc.Prog.entry with
        | Some (cfg, intervals) -> of_solution ~summaries prog cfg intervals
        | None -> Hashtbl.create 1 (* library or empty: no loops *)
      in
      Hashtbl.add cache proc.Prog.entry tbl;
      tbl
