(** Data-dependence graphs (Section 4.1): nodes are positions in an
    instruction sequence, edges are true (RAW) dependences labelled with
    the producer's latency; [distance] is the iteration distance (0 for
    same-iteration, 1 for loop-carried edges).

    Memory dependences are added only between provably same-location
    store/load pairs (same base register, same offset, no intervening
    base redefinition), consistent with the perfect disambiguation the
    timing model uses. *)

type edge = {
  src : int;
  dst : int;
  latency : int;
  distance : int;
}

type t = {
  instrs : Sdiq_isa.Instr.t array;
  edges : edge list;
  preds : (int * int * int) list array;
      (** per node: (src, latency, distance) of incoming edges *)
}

val num_nodes : t -> int
val edges : t -> edge list
val preds : t -> int -> (int * int * int) list

(** Assemble a graph from explicit edges; raises [Invalid_argument] on
    out-of-range endpoints. *)
val make : Sdiq_isa.Instr.t array -> edge list -> t

(** Register RAW edges within one iteration; with [carried], also the
    loop-carried edges. [latency] overrides producer latencies — the
    compiler analysis views loads with their assumed L1-hit latency. *)
val build :
  ?carried:bool ->
  ?latency:(Sdiq_isa.Instr.t -> int) ->
  Sdiq_isa.Instr.t array ->
  t

(** DDG of a loop body (blocks concatenated in program order), with
    carried edges. *)
val of_loop_body :
  ?latency:(Sdiq_isa.Instr.t -> int) -> Sdiq_isa.Instr.t array -> t

