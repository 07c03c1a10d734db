(* Backward liveness: a may-analysis (union join, empty initial fact) on
   the generic engine. The block transfer walks instructions in reverse,
   which is also exposed as [fold_block] so consumers see the same facts
   the fixpoint used. *)

open Sdiq_isa
module Cfg = Sdiq_cfg.Cfg

type t = {
  cfg : Cfg.t;
  live_in : Regset.t array;
  live_out : Regset.t array;
  call_effect : int -> Summary.t;
}

let opaque_effect _ = Summary.opaque

(* One instruction backwards: from the fact live after it to the fact
   live before it. *)
let step_instr ?(call_effect = opaque_effect) (i : Instr.t) live_after =
  if i.Instr.op = Opcode.Halt then
    (* Execution stops: nothing after a Halt can read anything, whatever
       the block-exit boundary says. *)
    Regset.empty
  else if i.Instr.op = Opcode.Call then
    (* The callee reads its uses; whatever it must-defines is reborn
       there, so the caller's obligation for those ends here. *)
    let s = call_effect i.Instr.target in
    Regset.union s.Summary.uses (Regset.diff live_after s.Summary.defs)
  else
    let live =
      match Instr.dest i with
      | Some r -> Regset.remove r live_after
      | None -> live_after
    in
    List.fold_left (fun acc r -> Regset.add r acc) live (Instr.sources i)

let block_transfer ~call_effect cfg b live_out =
  let instrs = Cfg.instrs cfg cfg.Cfg.blocks.(b) in
  List.fold_left
    (fun live i -> step_instr ~call_effect i live)
    live_out (List.rev instrs)

let compute ?(exit_boundary = Regset.full) ?summaries (cfg : Cfg.t) : t =
  let call_effect =
    match summaries with
    | None -> opaque_effect
    | Some table -> Summary.at table
  in
  let spec =
    {
      Dataflow.name = "liveness";
      direction = Dataflow.Backward;
      boundary = exit_boundary;
      init = Regset.empty;
      join = Regset.union;
      equal = Regset.equal;
      transfer = block_transfer ~call_effect cfg;
    }
  in
  let sol = Dataflow.run cfg spec in
  {
    cfg;
    live_in = sol.Dataflow.entry;
    live_out = sol.Dataflow.exit;
    call_effect;
  }

let fold_block t b ~init ~f =
  let blk = t.cfg.Cfg.blocks.(b) in
  let addrs = List.rev (Cfg.block_addrs blk) in
  let acc, _ =
    List.fold_left
      (fun (acc, live_after) addr ->
        let i = Sdiq_isa.Prog.instr t.cfg.Cfg.prog addr in
        let live_before =
          step_instr ~call_effect:t.call_effect i live_after
        in
        (f acc ~addr i ~live_before ~live_after, live_before))
      (init, t.live_out.(b))
      addrs
  in
  acc
