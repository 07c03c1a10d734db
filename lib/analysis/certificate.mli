(** Machine-checkable certificates: per-region static upper bounds on
    IQ occupancy and on technique-view IQ energy, derived from the
    {e delivered} binary (the [Iqset] instructions and instruction tags
    the machine actually decodes, not the analysis's annotation list).

    The occupancy argument: while a region is the oldest with an entry
    in flight, live entries split into episodes — one per region
    opening — and the software policy caps each episode's slots at its
    granted window. The episode sequence follows the region-successor
    graph (a region start executing while another is current), so a
    region's occupancy is bounded by its window plus the heaviest chain
    of successor windows, saturated at [min iq_size rob_size] whenever
    the chain is unbounded: successor cycles through {e distinct}
    anchors (the same anchor re-opening is suppressed by the policy's
    [region_pc] guard, so self-loops do not count) or a reachable [Ret]
    (whose target is dynamically produced and corruptible on the wrong
    path). A saturated bound is still a theorem — the queue and ROB
    physically cap occupancy — just not an interesting one; leaf and
    tail regions get real bounds.

    The energy bound prices the two occupancy-dependent counters from
    the occupancy bound ([wakeups <= 2 * occ * broadcasts]: at most two
    operand CAMs per live entry per tag; [banks_on <= min banks occ]: a
    powered bank holds at least one live entry) and every other term
    from its measured counter at the model's own coefficients. *)

type region = {
  start : int;  (** address of the [Iqset] or tagged instruction *)
  window : int;  (** granted window, as the policy clamps it *)
  occ_bound : int;  (** certified max IQ occupancy while oldest in flight *)
  saturated : bool;  (** [occ_bound] is the physical cap, not a chain sum *)
}

type t = {
  regions : region list;  (** in address order; excludes startup *)
  occ_bound : int;
      (** program-wide certified occupancy bound: max over regions and
          the (always saturated) startup region *)
  cap : int;  (** the physical cap [min iq_size rob_size] *)
}

val build : Sdiq_cpu.Config.t -> Sdiq_isa.Prog.t -> t

(** The certified bound for the region opened at [start], if that
    address opens one. *)
val occupancy_bound : t -> start:int -> int option

(** Validate the certificate against a measured run: an [Error] finding
    for any measured counter or energy exceeding its certified bound,
    else one [Info] finding stating what was certified. *)
val check :
  Sdiq_power.Params.t ->
  Sdiq_cpu.Config.t ->
  t ->
  Sdiq_cpu.Stats.t ->
  Finding.t list

val pp : Format.formatter -> t -> unit
