(** A workload: a program plus its deterministic memory initialiser.
    Each benchmark mimics the dominant character of its SPECint2000
    namesake (instruction mix, branch behaviour, memory footprint, call
    density). *)

type t = {
  name : string;
  description : string;
  prog : Sdiq_isa.Prog.t;
  init : Sdiq_isa.Exec.state -> unit;
      (** [Sdiq_isa.Exec.load] the benchmark's initial memory image into
          a pristine state (raises [Invalid_argument] on any other) *)
}

(** Assemble a workload from a builder over an assembler buffer; the
    entry procedure must be named "main". The first call of the
    result's [init] runs the initialiser [init] once on a scratch state
    and freezes what it wrote into the benchmark's image; that call and
    every later one, on any domain, load that one image. *)
val make :
  name:string ->
  description:string ->
  build:(Sdiq_isa.Asm.t -> unit) ->
  init:(Sdiq_isa.Exec.state -> unit) ->
  t
