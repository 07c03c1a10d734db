(* The one table of annotated-binary recipes, and the one call that
   builds a recipe's binary: the simulator harness, the region map, lint
   and the tightening audit all prepare through [apply_mode], then this
   module audits the annotation list, the emitted binary and its
   wrong-path anchor hygiene. *)

module Annotate = Sdiq_core.Annotate
module Options = Sdiq_core.Options

type mode = {
  name : string;
  delivery : Annotate.mode;
  opts : Options.t;
  tightened : bool;
}

let modes =
  [
    {
      name = "noop";
      delivery = Annotate.Noop;
      opts = Options.default;
      tightened = false;
    };
    {
      name = "extension";
      delivery = Annotate.Tagged;
      opts = Options.default;
      tightened = false;
    };
    {
      name = "improved";
      delivery = Annotate.Tagged;
      opts = Options.improved;
      tightened = false;
    };
    {
      name = "tightened";
      delivery = Annotate.Tagged;
      opts = Options.default;
      tightened = true;
    };
  ]

let mode_named name = List.find_opt (fun m -> m.name = name) modes

(* The caller's trip-count table, or a fresh one. *)
let table prog = function Some t -> t | None -> Tripcount.of_program prog

let apply_mode ?tripcounts mode prog =
  let tripcounts = table prog tripcounts in
  if mode.tightened then
    Tighten.apply ~opts:mode.opts ~tripcounts mode.delivery prog
  else Annotate.apply ~opts:mode.opts mode.delivery prog

(* The annotation-list audit matching the mode: [Soundness.audit], or
   the trip-count refined [Tighten.audit] for the tightened mode. *)
let audit_annotations ~tripcounts mode prog annotations =
  if mode.tightened then
    Tighten.audit ~opts:mode.opts ~tripcounts prog annotations
  else Soundness.audit ~opts:mode.opts prog annotations

let tag_pass mode fs =
  List.map
    (fun (f : Finding.t) -> { f with Finding.pass = mode.name ^ "/" ^ f.Finding.pass })
    fs

(* One trip-count table per audit: the tightener and its audit read the
   same one (it is lazy, so the other modes never build it). *)
let audit_mode ?tripcounts mode (prog : Sdiq_isa.Prog.t) : Finding.t list =
  let tripcounts = table prog tripcounts in
  let annotated, annotations = apply_mode ~tripcounts mode prog in
  tag_pass mode
    (audit_annotations ~tripcounts mode prog annotations
    @ Lint.delivery ~mode:mode.delivery ~original:prog ~annotated annotations
    @ Speclint.check annotated)

let lint_program ?rf_size (prog : Sdiq_isa.Prog.t) : Finding.t list =
  let summaries = Summary.of_program prog in
  let _, pressure = Pressure.audit ?rf_size ~summaries prog in
  Lint.check_program ~summaries prog @ pressure

let audit_all ?rf_size (prog : Sdiq_isa.Prog.t) : Finding.t list =
  List.sort Finding.compare
    (List.concat_map (fun m -> audit_mode m prog) modes
    @ lint_program ?rf_size prog)
