(* Region decomposition of a procedure (Section 4.1).

   The paper splits a procedure into two kinds of groups:
   - loops: each natural loop is one group (inner loops separated from the
     blocks that are only in the outer loop);
   - DAGs: the remaining blocks, where a DAG starts at the procedure's
     first block or at a block immediately following a function call, and
     none of its blocks may be part of a loop.

   Blocks that are only reachable through a loop (e.g. loop exit code) seed
   their own DAGs, so every block is covered by exactly one region. *)

open Sdiq_isa
module Iset = Loops.Iset

type region =
  | Dag of int list   (* block ids in forward (reverse post-) order *)
  | Loop of Loops.t

type t = {
  cfg : Cfg.t;
  regions : region list; (* in program order of their first block *)
}

(* True when [b] immediately follows a call instruction. *)
let follows_call cfg b =
  let blk = cfg.Cfg.blocks.(b) in
  blk.Cfg.first > cfg.Cfg.proc.Prog.entry
  && (Prog.instr cfg.Cfg.prog (blk.Cfg.first - 1)).Instr.op = Opcode.Call

let decompose (cfg : Cfg.t) : t =
  let loops = Loops.find cfg in
  let in_loop = Loops.loop_blocks loops in
  let n = Cfg.num_blocks cfg in
  let order = Cfg.reverse_postorder cfg in
  let rank = Array.make n 0 in
  List.iteri (fun i id -> rank.(id) <- i) order;
  (* Seeds for DAGs: entry block and post-call blocks that are not in a
     loop. *)
  let is_seed b =
    (not (Iset.mem b in_loop)) && (b = 0 || follows_call cfg b)
  in
  let assigned = Array.make n false in
  Iset.iter (fun b -> assigned.(b) <- true) in_loop;
  let grow seed =
    (* Collect the non-loop, non-seed blocks reachable from [seed]. *)
    let members = ref [ seed ] in
    assigned.(seed) <- true;
    let rec visit b =
      List.iter
        (fun s ->
          if (not assigned.(s)) && not (is_seed s) then begin
            assigned.(s) <- true;
            members := s :: !members;
            visit s
          end)
        (Cfg.succs cfg b)
    in
    visit seed;
    List.sort (fun a b -> compare rank.(a) rank.(b)) !members
  in
  let dags = ref [] in
  (* Grow DAGs from declared seeds in forward order, then sweep up any block
     left unassigned (reachable only through loops, or unreachable). *)
  List.iter (fun b -> if is_seed b && not assigned.(b) then
                 dags := grow b :: !dags)
    order;
  List.iter
    (fun b -> if not assigned.(b) then dags := grow b :: !dags)
    order;
  for b = 0 to n - 1 do
    if not assigned.(b) then dags := grow b :: !dags
  done;
  let first_block = function
    | Dag [] -> max_int
    | Dag (b :: _) -> (cfg.Cfg.blocks.(b)).Cfg.first
    | Loop l -> (cfg.Cfg.blocks.(l.Loops.header)).Cfg.first
  in
  let regions =
    List.map (fun bs -> Dag bs) !dags
    @ List.map (fun l -> Loop l) loops
  in
  let regions =
    List.sort (fun a b -> compare (first_block a) (first_block b)) regions
  in
  { cfg; regions }

(* Blocks of a region, as block ids in forward order. For a loop region this
   is the loop's [own] set (inner-loop blocks are their own regions). *)
let blocks t = function
  | Dag bs -> bs
  | Loop l ->
    let ids = Loops.Iset.elements l.Loops.own in
    List.sort
      (fun a b ->
        compare (t.cfg.Cfg.blocks.(a)).Cfg.first
          (t.cfg.Cfg.blocks.(b)).Cfg.first)
      ids

