(** Time-resolved view of a run: periodic samples of queue occupancy,
    powered banks, the policy's current limit and register-file pressure —
    the data that exposes the adaptive scheme's sensing lag against
    program phases (Section 1 of the paper). *)

type sample = {
  cycle : int;
  committed : int;
  iq_occupancy : int;
  iq_banks_on : int;
  iq_active_size : int;
  policy_limit : int;
  rf_live : int;
}

(** A sampler riding one pipeline's bus. *)
type t

(** Subscribe a sampler to [p] as ["timeline-sampler"]: it samples the
    machine on the first [Cycle_end] and then every [interval] cycles
    (default 200). Run [p] in any regime afterwards; the sampler only
    reads the machine, so the run's statistics are those of an
    unobserved run. *)
val attach : ?interval:int -> Sdiq_cpu.Pipeline.t -> t

(** The samples so far, oldest first. *)
val samples : t -> sample list

(** Header row plus one line per sample. *)
val to_csv : t -> string
