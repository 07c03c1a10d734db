(** Functional (oracle) executor.

    The timing simulator is execution-driven: the functional core runs
    each instruction as it is fetched, producing the dynamic stream the
    timing model schedules. Arithmetic is total (division by zero yields
    0, out-of-range shifts yield 0, unwritten memory reads 0) so randomly
    generated programs cannot fault.

    One datapath serves every executor: {!step} is {!datapath} plus the
    oracle's own control flow, and the pipeline's wrong-path frontend
    runs {!datapath} on a {!shadow} state, deciding control flow from
    the branch predictor instead. *)

type dyn = {
  sn : int;       (** dynamic sequence number, from 0 *)
  pc : int;
  instr : Instr.t;
  next_pc : int;  (** address of the next dynamic instruction *)
  taken : bool;   (** control instructions: was the transfer taken *)
  addr : int;     (** memory effective address, -1 for non-memory ops *)
}

type state = {
  prog : Prog.t;
  iregs : int array;
  fregs : float array;
  imem : Intmap.t;  (** integer memory (open addressing) *)
  fmem : (int, float) Hashtbl.t;
  base : state option;
      (** a shadow's backing state: [imem]/[fmem] then hold only the
          shadow's own stores, and other addresses read [base]'s memory *)
  mutable stack : int list;
  mutable pc : int;
  mutable steps : int;
  mutable halted : bool;
  mutable d_next_pc : int;
      (** [step] scratch (unboxed outcome fields); not meaningful between
          calls *)
  mutable d_taken : bool;
  mutable d_addr : int;
}

val create : Prog.t -> state

(** A shadow of [base]: its own registers (zero until {!fork}) and a
    store overlay over [base]'s memory. Loads read the overlay first,
    then [base]; stores never reach [base]. *)
val shadow : state -> state

(** Re-seed a shadow: copy its base's registers and drop the overlay.
    Raises [Invalid_argument] on a state that is not a shadow. *)
val fork : state -> unit

(** Integer memory access (word granularity; unwritten reads 0; a
    shadow reads through to its base). *)
val peek : state -> int -> int

val poke : state -> int -> int -> unit
val fpeek : state -> int -> float
val fpoke : state -> int -> float -> unit

(** Every non-control effect of one instruction: ALU and FP results,
    loads and stores, and [d_addr] (the effective address, [-1] for a
    non-memory op). Control instructions, [Nop], [Iqset] and [Halt]
    change nothing. *)
val datapath : state -> Instr.t -> unit

(** Execute the instruction at the current pc; [None] once halted. *)
val step : state -> dyn option

(** Run to completion or [max_steps]; returns executed instructions. *)
val run : ?max_steps:int -> state -> int
