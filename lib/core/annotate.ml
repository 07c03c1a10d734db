(* Annotation delivery: turn the analysis results into an annotated binary.

   [Noop]   — the paper's base scheme: special NOOPs carrying the value are
              inserted into the instruction stream (Section 3); they cost
              fetch bandwidth, instruction-cache space and a dispatch slot.
   [Tagged] — the paper's "Extension": the value rides on redundant bits of
              the region's first instruction, with no stream side effects
              (Section 5.3). The "Improved" technique is [Tagged] delivery
              with [Options.improved] analysis. *)

open Sdiq_isa

type mode =
  | Noop
  | Tagged

let annotation_map annotations =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (a : Procedure.annotation) -> Hashtbl.replace table a.addr a.value)
    annotations;
  fun addr -> Hashtbl.find_opt table addr

(* Back edges of annotated loops must keep targeting the header, not the
   inserted NOOP, so the NOOP runs on loop entry only. *)
let redirect_of annotations ~src ~dst =
  not
    (List.exists
       (fun (a : Procedure.annotation) ->
         a.addr = dst
         && (match a.loop_span with
            | Some (lo, hi) -> src >= lo && src <= hi
            | None -> false))
       annotations)

(* The one NOOP-or-tag rewriter dispatch: deliver [annotations] into
   [prog] by [mode]. *)
let deliver mode annotations (prog : Prog.t) : Prog.t =
  let ann = annotation_map annotations in
  match mode with
  | Noop -> Rewrite.insert_iqsets ~redirect:(redirect_of annotations) prog ann
  | Tagged -> Rewrite.apply_tags prog ann

(* [apply ~opts mode prog] analyses [prog] and returns the annotated
   program together with the annotations used. *)
let apply ?(opts = Options.default) mode (prog : Prog.t) :
    Prog.t * Procedure.annotation list =
  let annotations = Procedure.analyze_program ~opts prog in
  (deliver mode annotations prog, annotations)
