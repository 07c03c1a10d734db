(** Experiment runner: simulate (benchmark x technique) pairs, memoised,
    so every figure reads from one simulation campaign. The campaign runs
    in parallel on a {!Sdiq_util.Pool} of OCaml domains; each pair's
    simulation is pure given the runner's config, so the resulting table
    is identical whatever the domain count.

    Three execution regimes share one path: a detailed run to the
    instruction budget ({!run}), a SMARTS-sampled run of the whole
    program ({!run_sampled}) and a region-profiled run ({!profile}).
    Every pair is built by {!Technique.build}, handed to the [checker]
    callback if one was given, and memoised in its regime's own table. *)

type t

(** Summary of the last campaign ({!run_all}, {!run_all_sampled} or
    {!profile_all}). [serial_estimate_s] is the process CPU time
    ([Sys.time], summed over every domain) the campaign consumed —
    about what a 1-domain campaign of this CPU-bound work would take on
    the wall — so [speedup] compares against serial execution without
    running it. *)
type campaign = {
  pairs_total : int;  (** size of the (benchmark x technique) grid *)
  pairs_run : int;  (** pairs actually simulated (not already memoised) *)
  domains_used : int;
  wall_s : float;
  serial_estimate_s : float;
}

val create :
  ?config:Sdiq_cpu.Config.t ->
  ?sched:Sdiq_cpu.Sched.t ->
  ?budget:int ->
  ?benches:Sdiq_workloads.Bench.t list ->
  ?domains:int ->
  ?checker:(Sdiq_cpu.Pipeline.t -> unit) ->
  ?sample_config:Sampling.config ->
  unit ->
  t
(** [sched] is the runner's default select/wakeup scheduler policy for
    every run (default: the config's own [sched]); the per-run [?sched]
    arguments of {!run}, {!run_sampled} and {!profile} override it, and
    the override enters the memo key, so one runner serves a whole
    (benchmark x technique x sched) policy grid.

    [domains] sizes the campaign pool (default
    [Domain.recommended_domain_count ()]); [~domains:1] forces a serial
    campaign.

    [checker] is called on every machine the runner builds, in every
    regime (possibly on a worker domain), before the machine runs. Pass
    [fun p -> ignore (Sdiq_check.Checker.attach p)] to audit every
    campaign cycle with a fresh checker per run. *)

val bench_names : t -> string list

(** Raises [Invalid_argument] on an unknown name; the message lists the
    known benchmark names. *)
val find_bench : t -> string -> Sdiq_workloads.Bench.t

(** Run one pair (cached). [?sched] overrides the runner's scheduler
    policy for this run; distinct policies memoise separately. *)
val run : ?sched:Sdiq_cpu.Sched.t -> t -> string -> Technique.t -> Sdiq_cpu.Stats.t

(** Populate the whole (benchmark x technique) table, in parallel across
    the runner's domain pool. Already-memoised pairs are not re-run. *)
val run_all : t -> unit

(** Run one pair under SMARTS sampling ({!Sampling.sample}): the whole
    program, fast-forwarded between detailed windows — memoised
    separately from {!run}'s detailed table. A checker attached by the
    runner's [checker] callback audits every detailed cycle of every
    window. *)
val run_sampled :
  ?sched:Sdiq_cpu.Sched.t -> t -> string -> Technique.t -> Sampling.result

(** Populate the whole sampled (benchmark x technique) table in
    parallel, with the same disjoint-slot discipline as {!run_all}:
    the table is identical whatever the domain count. *)
val run_all_sampled : t -> unit

(** Region-attribution profile of one pair, memoised separately from
    {!run}'s table: a profiled pair is a {e dedicated} simulation with
    a ["region-profiler"] sink attached, never a warm cache hit — so
    conservation tests compare two independent executions. The runner's
    [checker] callback, if any, sees this machine too. *)
val profile :
  ?sched:Sdiq_cpu.Sched.t -> t -> string -> Technique.t -> Sdiq_obs.Profiler.t

(** Profile the (benchmark x [techniques]) grid (default: all five) in
    parallel across the runner's pool. Returns every pair in grid
    order plus the campaign-wide merge of their metric registries;
    both are byte-identical whatever the domain count. *)
val profile_all :
  ?techniques:Technique.t list ->
  t ->
  (string * Technique.t * Sdiq_obs.Profiler.t) list * Sdiq_obs.Metrics.t

val campaign_stats : t -> campaign option
(** Stats of the most recent campaign of any regime — {!run_all},
    {!run_all_sampled} or {!profile_all} ([None] before the first).
    [pairs_total] is the size of that campaign's grid. *)

val speedup : campaign -> float
(** [serial_estimate_s /. wall_s]. *)

val pp_campaign : Format.formatter -> campaign -> unit

(** Savings of a technique against the same benchmark's baseline. *)
val savings :
  ?params:Sdiq_power.Params.t -> ?sched:Sdiq_cpu.Sched.t -> t -> string ->
  Technique.t -> Sdiq_power.Report.t

(** The "nonEmpty" saving on a benchmark's baseline run. *)
val non_empty_saving : ?params:Sdiq_power.Params.t -> t -> string -> float

(** Total IQ energy (dynamic + static, default power parameters) per
    technique of {!Technique.all}, summed over the suite's detailed runs
    — what the run ledger records for exact-drift gating
    ({!Sdiq_obs.Ledger}). Simulates any pair not yet memoised. *)
val energy_totals : t -> (string * float) list
