(* The static region map: annotation sites, library procedures and
   procedure preambles, indexed by running-binary address.

   For NOOP delivery the emitted addresses are reconstructed from the
   annotated binary itself (Lint.noop_address_map) rather than by
   re-running the rewriter's arithmetic, so the profiler attributes
   against the same address map the delivery lints audit. A region's
   span is the half-open address interval from its anchor to the next
   anchor: annotations are placed at DAG-block starts, loop headers
   and re-entry points, so interval membership matches the "covers
   until the next special NOOP" semantics for committed pcs. *)

open Sdiq_isa
module Procedure = Sdiq_core.Procedure
module Driver = Sdiq_analysis.Driver

type kind =
  | Startup
  | Preamble
  | Library
  | Block
  | Loop

type info = {
  id : int;
  proc : string;
  kind : kind;
  start : int;
  orig_start : int;
  granted : int option;
}

type t = {
  recipe_name : string;
  running : Prog.t;
  infos : info array;
  addr_map : int array; (* running address -> region id *)
}

let kind_name = function
  | Startup -> "startup"
  | Preamble -> "preamble"
  | Library -> "library"
  | Block -> "block"
  | Loop -> "loop"

let build (recipe : Driver.mode option) (original : Prog.t) : t =
  let running, annotations =
    match recipe with
    | None -> (original, Procedure.analyze_program original)
    | Some m -> Driver.apply_mode m original
  in
  let start_of =
    match recipe with
    | Some { Driver.delivery = Sdiq_core.Annotate.Noop; _ } -> (
      match
        Sdiq_analysis.Lint.noop_address_map ~original ~annotated:running
      with
      | None ->
        (* The rewriter preserves the original instruction sequence by
           construction; failing to recover it means the binary is not
           one of ours. *)
        invalid_arg
          "Region.build: annotated binary does not embed the original \
           instruction sequence"
      | Some (new_of_orig, iqset_before) -> (
        fun (a : Procedure.annotation) ->
          match iqset_before.(a.Procedure.addr) with
          | Some (j, _) -> j
          | None -> new_of_orig.(a.Procedure.addr)))
    | _ -> fun (a : Procedure.annotation) -> a.Procedure.addr
  in
  let orig_entry name =
    match Prog.find_proc original name with
    | Some p -> p.Prog.entry
    | None -> -1
  in
  (* Anchors: (running start, kind, proc, orig start, granted). *)
  let ann_anchors =
    List.map
      (fun (a : Procedure.annotation) ->
        let start = start_of a in
        let proc =
          match Prog.proc_of_addr running start with
          | Some p -> p.Prog.name
          | None -> ""
        in
        let kind =
          match a.Procedure.loop_span with Some _ -> Loop | None -> Block
        in
        (start, kind, proc, a.Procedure.addr, Some a.Procedure.value))
      annotations
  in
  let ann_starts = List.map (fun (s, _, _, _, _) -> s) ann_anchors in
  let proc_anchors =
    List.filter_map
      (fun (p : Prog.proc) ->
        if p.Prog.len = 0 then None
        else if p.Prog.is_library then
          Some (p.Prog.entry, Library, p.Prog.name, orig_entry p.Prog.name, None)
        else if List.mem p.Prog.entry ann_starts then None
        else
          (* Unannotated procedure prefix: attribute it to a preamble
             region rather than letting it leak into a neighbour. *)
          Some
            (p.Prog.entry, Preamble, p.Prog.name, orig_entry p.Prog.name, None))
      running.Prog.procs
  in
  let anchors =
    List.sort
      (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
      (ann_anchors @ proc_anchors)
  in
  let startup =
    { id = 0; proc = ""; kind = Startup; start = -1; orig_start = -1; granted = None }
  in
  let infos =
    Array.of_list
      (startup
      :: List.mapi
           (fun i (start, kind, proc, orig_start, granted) ->
             { id = i + 1; proc; kind; start; orig_start; granted })
           anchors)
  in
  let n = Prog.length running in
  let addr_map = Array.make n 0 in
  let next = ref 1 in
  let cur = ref 0 in
  for addr = 0 to n - 1 do
    while !next < Array.length infos && infos.(!next).start <= addr do
      cur := !next;
      incr next
    done;
    addr_map.(addr) <- !cur
  done;
  let recipe_name =
    match recipe with Some m -> m.Driver.name | None -> "plain"
  in
  { recipe_name; running; infos; addr_map }

let recipe_name t = t.recipe_name
let running_prog t = t.running
let count t = Array.length t.infos

let info t i =
  if i < 0 || i >= Array.length t.infos then
    invalid_arg "Region.info: no such region";
  t.infos.(i)

let infos t = Array.copy t.infos

let of_addr t addr =
  if addr < 0 || addr >= Array.length t.addr_map then
    invalid_arg (Printf.sprintf "Region.of_addr: address %d out of range" addr);
  t.addr_map.(addr)
