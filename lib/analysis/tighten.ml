(* Annotation tightening.

   The analysis ([Procedure.analyze_program]) and the audit
   ([Soundness.bounds_of_proc]) place annotations at the same anchors
   but do not demand the same values: the analysis folds a loop's
   flattened whole-body schedule into its requirement and (under
   "Improved") widens interprocedurally, while the audit only ever
   requires the per-path CDS bound. This pass closes the gap by
   emitting the audit's own obligations — further refined by proved
   trip counts — as the annotation list, so the tightened binary is
   the minimal binary the auditor accepts, and accepts slack-free. *)

open Sdiq_isa
module Cfg = Sdiq_cfg.Cfg
module Loops = Sdiq_cfg.Loops
module Options = Sdiq_core.Options
module Procedure = Sdiq_core.Procedure
module Annotate = Sdiq_core.Annotate

(* Loop spans, keyed by the header's first address, so back edges keep
   bypassing an inserted NOOP exactly as [Annotate.deliver]
   expects. *)
let spans_of cfg =
  let spans = Hashtbl.create 8 in
  List.iter
    (fun (loop : Loops.t) ->
      let header = cfg.Cfg.blocks.(loop.Loops.header) in
      let span =
        Loops.Iset.fold
          (fun id (lo, hi) ->
            let blk = cfg.Cfg.blocks.(id) in
            (min lo blk.Cfg.first, max hi blk.Cfg.last))
          loop.Loops.body (max_int, min_int)
      in
      Hashtbl.replace spans header.Cfg.first span)
    (Loops.find cfg);
  spans

(* The tightened annotation list: one annotation per [Soundness]
   obligation, at its clamped refined bound, loop spans preserved for
   back-edge bypass. Both audit and tightener read trip counts from the
   [Tripcount] table they are handed, so they cannot disagree on the
   refinement. *)
let annotations ?(opts = Options.default) ~tripcounts (prog : Prog.t) :
    Procedure.annotation list =
  List.concat_map
    (fun (p : Prog.proc) ->
      if p.Prog.is_library || p.Prog.len = 0 then []
      else
        let spans = spans_of (Cfg.build prog p) in
        List.map
          (fun (b : Soundness.bound) ->
            {
              Procedure.addr = b.Soundness.anchor;
              value = b.Soundness.required;
              loop_span = Hashtbl.find_opt spans b.Soundness.anchor;
            })
          (Soundness.bounds_of_proc ~opts ~tripcounts:(tripcounts p) prog p))
    prog.Prog.procs
  |> List.sort (fun (a : Procedure.annotation) b -> compare a.addr b.addr)

let apply ?opts ~tripcounts mode (prog : Prog.t) :
    Prog.t * Procedure.annotation list =
  let anns = annotations ?opts ~tripcounts prog in
  (Annotate.deliver mode anns prog, anns)

let audit ?opts ~tripcounts (prog : Prog.t) anns : Finding.t list =
  Soundness.audit ?opts ~tripcounts_of:tripcounts prog anns

let narrowing ~tripcounts (prog : Prog.t) : int * int * int =
  let tight = annotations ~tripcounts prog in
  let improved =
    Annotate.annotation_map
      (Procedure.analyze_program ~opts:Options.improved prog)
  in
  List.fold_left
    (fun (anchors, narrowed, reduction) (a : Procedure.annotation) ->
      match improved a.Procedure.addr with
      | Some v when v > a.Procedure.value ->
        (anchors + 1, narrowed + 1, reduction + (v - a.Procedure.value))
      | _ -> (anchors + 1, narrowed, reduction))
    (0, 0, 0) tight
