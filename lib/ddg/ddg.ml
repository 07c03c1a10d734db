(* Data-dependence graphs (Section 4.1: "Within each loop and DAG the DDG is
   constructed and its edges labelled with the latencies of the
   instructions").

   Nodes are positions in an instruction sequence (a basic block, or a loop
   body). Edges are true (RAW) dependences — renaming removes WAR/WAW, so
   they do not constrain the issue queue. [distance] is the iteration
   distance: 0 for same-iteration edges, 1 for loop-carried edges.

   Memory dependences: the compiler has no alias analysis, so we take the
   optimistic-but-safe-for-timing view a simple compiler would: a store and
   a later load depend on each other only when they provably access the same
   location (same base register with no intervening redefinition, same
   offset). The timing simulator uses perfect memory disambiguation, so this
   choice is consistent with the hardware being modelled. Cache misses are
   not modelled here: the paper assumes all accesses hit (Section 4.2). *)

open Sdiq_isa

type edge = {
  src : int;
  dst : int;
  latency : int; (* latency of the producing instruction *)
  distance : int; (* iteration distance: 0 = same iteration *)
}

type t = {
  instrs : Instr.t array;
  edges : edge list;
  preds : (int * int * int) list array;
      (* per node: (src, latency, distance) of incoming edges *)
}

let num_nodes t = Array.length t.instrs

let edges t = t.edges

let preds t n = t.preds.(n)

let make instrs edges =
  let n = Array.length instrs in
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Ddg.make: edge endpoint out of range";
      preds.(e.dst) <- (e.src, e.latency, e.distance) :: preds.(e.dst))
    edges;
  { instrs; edges; preds }

(* Register RAW edges within one iteration of [instrs]; when [carried] is
   true, also the loop-carried edges (last writer in the body to the reads
   that occur before any redefinition in the next iteration). [latency]
   lets the caller override the producing latency — the compiler analysis
   views loads with their assumed L1-hit latency (Section 4.2). *)
let build ?(carried = false) ?(latency = Instr.latency)
    (instrs : Instr.t array) : t =
  let n = Array.length instrs in
  let last_writer = Hashtbl.create 16 in (* Reg.dense -> node *)
  let edges = ref [] in
  let add_edge src dst distance =
    let latency = latency instrs.(src) in
    edges := { src; dst; latency; distance } :: !edges
  in
  (* Same-iteration register edges; remember reads that happen before any
     redefinition (exposed reads) for the carried pass. *)
  let exposed_reads = Hashtbl.create 16 in (* Reg.dense -> node list *)
  for i = 0 to n - 1 do
    let ins = instrs.(i) in
    List.iter
      (fun r ->
        let d = Reg.dense r in
        match Hashtbl.find_opt last_writer d with
        | Some w -> add_edge w i 0
        | None ->
          let cur =
            match Hashtbl.find_opt exposed_reads d with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace exposed_reads d (i :: cur))
      (Instr.sources ins);
    (match Instr.dest ins with
    | Some r -> Hashtbl.replace last_writer (Reg.dense r) i
    | None -> ())
  done;
  (* Same-iteration memory edges: provable same-location store -> load /
     store -> store. A pair is provably same-location when base register and
     offset match and the base register is not redefined in between. *)
  let base_key (ins : Instr.t) =
    match ins.src1 with Some r -> Some (Reg.dense r, ins.imm) | None -> None
  in
  let redefines_between lo hi regd =
    let redefined = ref false in
    for k = lo + 1 to hi - 1 do
      match Instr.dest instrs.(k) with
      | Some r when Reg.dense r = regd -> redefined := true
      | Some _ | None -> ()
    done;
    !redefined
  in
  for i = 0 to n - 1 do
    if Instr.is_store instrs.(i) then
      for j = i + 1 to n - 1 do
        if Instr.is_mem instrs.(j) then
          match (base_key instrs.(i), base_key instrs.(j)) with
          | Some (bi, oi), Some (bj, oj)
            when bi = bj && oi = oj && not (redefines_between i j bi) ->
            add_edge i j 0
          | _ -> ()
      done
  done;
  (* Loop-carried register edges. *)
  if carried then
    Hashtbl.iter
      (fun d w ->
        match Hashtbl.find_opt exposed_reads d with
        | Some readers -> List.iter (fun r -> add_edge w r 1) readers
        | None -> ())
      last_writer;
  make instrs (List.rev !edges)

(* DDG of a loop body given as a flat instruction sequence (blocks of the
   loop region concatenated in program order), with carried edges. *)
let of_loop_body ?latency instrs = build ~carried:true ?latency instrs

