(** Workload lints: structural checks over programs and over the
    annotated binaries the delivery layer emits.

    Program lints (mode-independent):
    - unreachable blocks ([Warning]);
    - registers that may be read before any definition on some path, a
      forward must-defined analysis ([Warning]; loads and stores whose
      {e base} register may be undefined are reported by the separate
      ["undef-base"] pass, and calls whose callee's transitive
      {!Summary.t.uses} exceed what the caller has defined are flagged at
      the call site);
    - dead writes, values never read on any path ([Info]) — liveness is
      conservative across calls (callee summaries) and procedure exits,
      so a reported write is dead under any calling convention.

    Delivery lints (per annotation mode):
    - NOOP-mode emission integrity: every annotation materialised as an
      [Iqset] with the right value, every branch into an annotated
      region redirected to the region's [Iqset], and every back edge of
      an annotated loop {e bypassing} the header's [Iqset]
      ({!Sdiq_core.Annotate.redirect_of} integrity) — checked
      independently by reconstructing the address map from the emitted
      binary, not by re-running the rewriter ([Error] on mismatch);
    - tag-mode emission: tags present exactly at annotated addresses
      with the annotated values ([Error] on mismatch). *)

(** Lints over one procedure; [cfg] must be [Cfg.build prog proc]. *)
val use_before_def :
  ?summaries:(int, Summary.t) Hashtbl.t ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.proc ->
  Sdiq_cfg.Cfg.t ->
  Finding.t list

(** All program lints over every non-library procedure; [summaries] is
    computed from [prog] when not supplied. *)
val check_program :
  ?summaries:(int, Summary.t) Hashtbl.t -> Sdiq_isa.Prog.t -> Finding.t list

(** The NOOP-insertion address map, reconstructed from the emitted
    binary itself (never by re-running the rewriter): in
    [Some (new_of_orig, iqset_before)], [new_of_orig.(k)] is the
    emitted address of the original instruction [k], and
    [iqset_before.(k)] is [Some (emitted_addr, value)] when an [Iqset]
    carrying [value] immediately precedes it. [None] when the
    annotated binary does not contain the original instruction
    sequence. Shared by the delivery lints and the region-attribution
    profiler ({!Sdiq_obs.Region}), so both audit and attribution work
    in the address space the machine actually executes. *)
val noop_address_map :
  original:Sdiq_isa.Prog.t ->
  annotated:Sdiq_isa.Prog.t ->
  (int array * (int * int) option array) option

(** Audit an annotated binary against the annotation list that produced
    it. [original] is the pre-delivery program. *)
val delivery :
  mode:Sdiq_core.Annotate.mode ->
  original:Sdiq_isa.Prog.t ->
  annotated:Sdiq_isa.Prog.t ->
  Sdiq_core.Procedure.annotation list ->
  Finding.t list
