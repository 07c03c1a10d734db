(* Generic monotone dataflow over Sdiq_cfg.Cfg: a worklist seeded in
   reverse post-order (or its reverse, for backward analyses) so that on
   reducible graphs most facts settle in one or two sweeps. Internally
   [input]/[output] are direction-relative; they are swapped back into
   program-order [entry]/[exit] when building the solution.

   [worklist] is the visit schedule alone: [run] drives it with
   immutable facts, and an analysis that keeps mutable per-block facts
   (the interval fixpoint) drives it with its own visit, so both share
   one visit order and one step budget. *)

module Cfg = Sdiq_cfg.Cfg

type direction =
  | Forward
  | Backward

exception Diverged of string * int

type 'fact spec = {
  name : string;
  direction : direction;
  boundary : 'fact;
  init : 'fact;
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
  transfer : int -> 'fact -> 'fact;
}

type 'fact solution = {
  entry : 'fact array;
  exit : 'fact array;
  steps : int;
}

let worklist ?max_steps ~name (cfg : Cfg.t) direction visit =
  let nb = Cfg.num_blocks cfg in
  let limit =
    match max_steps with Some m -> m | None -> 256 * (nb + 1)
  in
  let rpo = Cfg.reverse_postorder cfg in
  let order =
    match direction with Forward -> rpo | Backward -> List.rev rpo
  in
  let sinks b =
    match direction with
    | Forward -> Cfg.succs cfg b
    | Backward -> Cfg.preds cfg b
  in
  let on_list = Array.make nb true in
  let q = Queue.create () in
  List.iter (fun b -> Queue.add b q) order;
  let steps = ref 0 in
  while not (Queue.is_empty q) do
    if !steps >= limit then raise (Diverged (name, !steps));
    incr steps;
    let b = Queue.pop q in
    on_list.(b) <- false;
    if visit b then
      List.iter
        (fun s ->
          if not on_list.(s) then begin
            on_list.(s) <- true;
            Queue.add s q
          end)
        (sinks b)
  done;
  !steps

let run ?max_steps (cfg : Cfg.t) (spec : 'fact spec) : 'fact solution =
  let nb = Cfg.num_blocks cfg in
  let sources b =
    match spec.direction with
    | Forward -> Cfg.preds cfg b
    | Backward -> Cfg.succs cfg b
  in
  (* The boundary fact enters at the entry block (forward) or at blocks
     with no successors (backward). A block can be both a boundary and
     have incoming edges (a branch back to the procedure's first
     instruction), so the boundary is joined in rather than substituted. *)
  let is_boundary b =
    match spec.direction with
    | Forward -> b = 0
    | Backward -> Cfg.succs cfg b = []
  in
  let input = Array.make nb spec.init in
  let output = Array.make nb spec.init in
  let visit b =
    let in_fact =
      let base = if is_boundary b then spec.boundary else spec.init in
      List.fold_left (fun acc s -> spec.join acc output.(s)) base (sources b)
    in
    input.(b) <- in_fact;
    let out = spec.transfer b in_fact in
    let changed = not (spec.equal out output.(b)) in
    if changed then output.(b) <- out;
    changed
  in
  let steps = worklist ?max_steps ~name:spec.name cfg spec.direction visit in
  match spec.direction with
  | Forward -> { entry = input; exit = output; steps }
  | Backward -> { entry = output; exit = input; steps }
