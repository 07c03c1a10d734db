(** Backward liveness over a procedure's CFG, shared by the dead-write
    lint and the register-pressure pass.

    Interprocedural effects come from {!Summary} when a table is
    supplied: a [Call] reads the callee's transitive uses, and whatever
    the callee must-defines stops being the caller's obligation. Without
    summaries the opaque assumption applies (a call reads everything).
    Procedure exits assume every register live (the caller may read
    anything left behind) unless [exit_boundary] narrows it. All the
    defaults only ever enlarge live sets, so a value reported dead is
    dead on every path under any calling convention. The one exact case:
    nothing is live before a [Halt] — execution stops there. *)

type t = {
  cfg : Sdiq_cfg.Cfg.t;
  live_in : Regset.t array;   (** live at block entry, by block id *)
  live_out : Regset.t array;  (** live at block exit, by block id *)
  call_effect : int -> Summary.t;
      (** the call model the fixpoint ran under, by callee entry *)
}

(** [exit_boundary] is the fact at blocks with no successors (default
    {!Regset.full}); [summaries] refines calls (default: opaque). *)
val compute :
  ?exit_boundary:Regset.t ->
  ?summaries:(int, Summary.t) Hashtbl.t ->
  Sdiq_cfg.Cfg.t ->
  t

(** Fold over a block's instructions in reverse address order, handing
    each instruction the facts live before and after it, under the same
    call model the fixpoint used. *)
val fold_block :
  t ->
  int ->
  init:'a ->
  f:
    ('a ->
    addr:int ->
    Sdiq_isa.Instr.t ->
    live_before:Regset.t ->
    live_after:Regset.t ->
    'a) ->
  'a
