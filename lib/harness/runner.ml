(* Experiment runner: simulate (benchmark x technique) and cache the
   results so every figure reads from one set of runs, exactly as the
   paper derives all its figures from one simulation campaign.

   There are three execution regimes — a detailed run to an instruction
   budget, a SMARTS-sampled run of the whole program, and a profiled run
   with the region-attribution profiler on the bus — and one path drives
   them all: the regime's [step] asks for the machine ([Technique.build],
   handed to the runner's checker callback, if any) and runs it. Each
   regime has its own memo table: a sampled run is a different
   execution and must never alias a detailed one, and a profiled pair is
   a dedicated simulation, so conservation tests compare two independent
   executions.

   The campaign itself is parallel: [campaign] shards the key set across
   a work-stealing domain pool ([Sdiq_util.Pool]). Each run is pure given
   the runner's [Config.t] — the pipeline, caches, predictor and policy
   are built fresh per run and nothing in [lib/cpu] touches global state
   — so workers need no locks: they fill disjoint slots of a result
   buffer, and the memo table is populated single-threadedly after the
   join barrier, always in key order. A 1-domain and an N-domain campaign
   therefore produce byte-identical tables. *)

open Sdiq_workloads

(* The scheduler policy is the campaign's third axis (benchmark x
   technique x sched); it enters the memo keys as its [Sched.key] string
   so a policy-grid sweep shares one runner without aliasing runs. *)
type key = string * Technique.t * string

type campaign = {
  pairs_total : int;
  pairs_run : int;
  domains_used : int;
  wall_s : float;
  serial_estimate_s : float;
}

type 'r regime = {
  pair_span : string; (* one simulation *)
  campaign_span : string; (* one campaign over the grid *)
  memo : (key, 'r) Hashtbl.t;
  step :
    Bench.t ->
    Technique.t ->
    (?prog:Sdiq_isa.Prog.t -> unit -> Sdiq_cpu.Pipeline.t) ->
    'r;
      (* gets the built, initialised machine ([?prog]: an already
         prepared binary) and runs it; pure given the runner's config,
         so safe on any domain *)
}

type t = {
  config : Sdiq_cpu.Config.t;
  sched : Sdiq_cpu.Sched.t; (* default select/wakeup policy for runs *)
  benches : Bench.t list;
  pool : Sdiq_util.Pool.t;
  checker : (Sdiq_cpu.Pipeline.t -> unit) option;
      (* called on every machine the runner builds (possibly on another
         domain), before it runs *)
  detailed : Sdiq_cpu.Stats.t regime;
  sampled : Sampling.result regime;
  profiled : Sdiq_obs.Profiler.t regime;
  mutable last_campaign : campaign option;
}

let regime pair_span campaign_span step =
  { pair_span; campaign_span; memo = Hashtbl.create 64; step }

let create ?(config = Sdiq_cpu.Config.default) ?sched ?(budget = 100_000)
    ?(benches = Suite.all ()) ?domains ?checker
    ?(sample_config = Sampling.default) () =
  let sched =
    match sched with Some s -> s | None -> config.Sdiq_cpu.Config.sched
  in
  {
    config;
    sched;
    benches;
    pool = Sdiq_util.Pool.create ?domains ();
    checker;
    detailed =
      regime "sim.pair" "campaign.run_all" (fun _ _ machine ->
          Sdiq_cpu.Pipeline.run ~max_insns:budget (machine ()));
    (* A checker attached to the machine sees every detailed cycle,
       warmup and measured alike, so a checkered sampled campaign audits
       every detailed window. *)
    sampled =
      regime "sim.sampled_pair" "campaign.run_all_sampled" (fun _ _ machine ->
          Sampling.sample ~config:sample_config (machine ()));
    (* The machine runs the region map's own binary, so the technique's
       recipe is applied once and the map attributes the very program
       that runs. *)
    profiled =
      regime "sim.profile_pair" "campaign.profile_all"
        (fun bench tech machine ->
          let map =
            Sdiq_obs.Region.build (Technique.recipe tech) bench.Bench.prog
          in
          let p = machine ~prog:(Sdiq_obs.Region.running_prog map) () in
          let prof = Sdiq_obs.Profiler.attach map p in
          let (_ : Sdiq_cpu.Stats.t) =
            Sdiq_cpu.Pipeline.run ~max_insns:budget p
          in
          prof);
    last_campaign = None;
  }

let bench_names t = List.map (fun (b : Bench.t) -> b.Bench.name) t.benches
let domains t = Sdiq_util.Pool.domains t.pool

let find_bench t name =
  match List.find_opt (fun (b : Bench.t) -> b.Bench.name = name) t.benches with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "Runner: unknown benchmark %S (known: %s)" name
         (String.concat ", " (bench_names t)))

(* One cold simulation in regime [rg]. The [checker] callback sees each
   machine before it runs. *)
let simulate_pair t rg ~sched name technique =
  Sdiq_util.Spanlog.with_span rg.pair_span
    ~attrs:[ ("bench", name); ("technique", Technique.name technique) ]
  @@ fun () ->
  let bench = find_bench t name in
  let machine ?prog () =
    let p = Technique.build ~config:t.config ~sched ?prog technique bench in
    Option.iter (fun f -> f p) t.checker;
    p
  in
  rg.step bench technique machine

(* The memo probe, counted on the span log. *)
let cached rg key =
  let r = Hashtbl.find_opt rg.memo key in
  Sdiq_util.Spanlog.count
    (if Option.is_some r then "memo.hit" else "memo.miss");
  r

(* One pair, memoised. [?sched] overrides the runner's default policy
   for this run only; the override is part of the memo key, so grid
   sweeps over policies share the runner. *)
let lookup ?sched t rg name technique =
  let sched = match sched with Some s -> s | None -> t.sched in
  let key = (name, technique, Sdiq_cpu.Sched.key sched) in
  match cached rg key with
  | Some r -> r
  | None ->
    let r = simulate_pair t rg ~sched name technique in
    Hashtbl.replace rg.memo key r;
    r

(* The (benchmark x [techniques]) grid under the runner's default
   policy, simulated in parallel where not already memoised. Returns
   every pair's result in grid order. *)
let campaign t rg techniques =
  let skey = Sdiq_cpu.Sched.key t.sched in
  let grid =
    List.concat_map
      (fun name -> List.map (fun tech -> (name, tech, skey)) techniques)
      (bench_names t)
  in
  let todo =
    Array.of_list (List.filter (fun key -> Option.is_none (cached rg key)) grid)
  in
  Sdiq_util.Spanlog.enter rg.campaign_span
    ~attrs:
      [
        ("pairs", string_of_int (Array.length todo));
        ("domains", string_of_int (domains t));
      ];
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  (* Hot path: no locks, no shared writes — each worker simulates into
     its own slot of [results]. *)
  let results =
    Sdiq_util.Pool.map_array t.pool
      ~f:(fun (name, tech, _) -> simulate_pair t rg ~sched:t.sched name tech)
      todo
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* [Sys.time] sums CPU time over every domain of the process; a serial
     campaign of this CPU-bound workload would take about that long on
     the wall. Unlike per-pair wall timing it is not inflated when
     domains timeshare oversubscribed cores. *)
  let serial_estimate_s = Sys.time () -. c0 in
  (* Join barrier passed: merge the per-worker buffers into the memo
     table, in key order, on the calling domain only. *)
  Array.iteri (fun i r -> Hashtbl.replace rg.memo todo.(i) r) results;
  t.last_campaign <-
    Some
      {
        pairs_total = List.length grid;
        pairs_run = Array.length todo;
        domains_used = domains t;
        wall_s;
        serial_estimate_s;
      };
  Sdiq_util.Spanlog.exit ();
  List.map
    (fun ((name, tech, _) as key) -> (name, tech, Hashtbl.find rg.memo key))
    grid

let run ?sched t = lookup ?sched t t.detailed
let run_all t = ignore (campaign t t.detailed Technique.all : _ list)
let run_sampled ?sched t = lookup ?sched t t.sampled
let run_all_sampled t = ignore (campaign t t.sampled Technique.all : _ list)
let profile ?sched t = lookup ?sched t t.profiled

(* The campaign merge walks the grid in its declared order, so the
   merged metrics are byte-identical whatever the domain count. *)
let profile_all ?(techniques = Technique.all) t =
  let pairs = campaign t t.profiled techniques in
  let merged =
    List.fold_left
      (fun acc (_, _, prof) ->
        Sdiq_obs.Metrics.merge acc (Sdiq_obs.Profiler.metrics prof))
      (Sdiq_obs.Metrics.create ())
      pairs
  in
  (pairs, merged)

let campaign_stats t = t.last_campaign

let speedup c = if c.wall_s > 0. then c.serial_estimate_s /. c.wall_s else 1.

let pp_campaign ppf c =
  Format.fprintf ppf
    "campaign: %d/%d pairs run on %d domain%s in %.2fs (serial estimate \
     %.2fs, speedup %.2fx)"
    c.pairs_run c.pairs_total c.domains_used
    (if c.domains_used = 1 then "" else "s")
    c.wall_s c.serial_estimate_s (speedup c)

(* Savings of [technique] on [name] against that benchmark's baseline,
   both runs under the same scheduler policy. *)
let savings ?params ?sched t name technique : Sdiq_power.Report.t =
  let base = run ?sched t name Technique.Baseline in
  let tech = run ?sched t name technique in
  Sdiq_power.Report.compute ?params ~cfg:t.config ~base tech

let non_empty_saving ?params t name : float =
  let base = run t name Technique.Baseline in
  Sdiq_power.Report.non_empty_dynamic_saving ?params ~cfg:t.config base

(* Total IQ energy per technique over the whole suite — the numbers the
   run ledger tracks across commits for exact-drift gating (any drift
   under an unchanged digest means the simulator changed). Reads
   memoised pairs, costs nothing after [run_all]. *)
let energy_totals t =
  let params = Sdiq_power.Params.default in
  List.map
    (fun tech ->
      let total =
        List.fold_left
          (fun acc bench ->
            let e = Sdiq_power.Iq_power.technique params (run t bench tech) in
            acc +. e.Sdiq_power.Iq_power.dynamic
            +. e.Sdiq_power.Iq_power.static_)
          0. (bench_names t)
      in
      (Technique.name tech, total))
    Technique.all
