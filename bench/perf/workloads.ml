open Sdiq_harness
module Bench = Sdiq_workloads.Bench
module Pipeline = Sdiq_cpu.Pipeline
module Sched = Sdiq_cpu.Sched
module Stats = Sdiq_cpu.Stats
module Span = Sdiq_util.Spanlog
module Pool = Sdiq_util.Pool

type size = Full | Smoke

type outcome = {
  attempted : int;
  failures : string list;
  outputs : string list;
  detailed : Stats.t;
  sampled_insns : int;
  sampled_measured_insns : int;
  sampled_detailed_insns : int;
  analysis_errors : int;
  paper_gap_pp : float option;
}

type prepared = {
  build_s : float;
  ops : int;
  campaign : unit -> unit -> outcome;
  traced : unit -> unit -> outcome;
  oracle : (Sdiq_isa.Prog.t * (Sdiq_isa.Exec.state -> unit)) list;
}

type t = {
  name : string;
  default_reps : int;
  setup : size -> seed:int -> prepared;
}

let domains = 2
let oracle_cap = 1_000_000

(* Rep sizes. Host speed on a shared 2-core box drifts by up to 1.5x
   over tens of seconds, so a steady median needs many reps per run:
   each rep is sized to one to two seconds there. *)
let paper_budget = 40_000
let policy_budget = 20_000
let sampled_divisor = 40
let sampled_min_windows = 4
let random_count = 300
let config = Sdiq_cpu.Config.default
let params = Sdiq_power.Params.default
let sched = Sched.oldest_first

let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9)

(* The seed only reorders submission: every operation is a pure
   function of its inputs, so outputs (and the digest) do not move. *)
let permute seed xs =
  let a = Array.of_list xs in
  Sdiq_util.Rng.shuffle (Sdiq_util.Rng.create seed) a;
  a

let hash s = Digest.to_hex (Digest.string s)

let stats_line (s : Stats.t) =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (Stats.to_fields s))

let sum_stats l =
  let acc = Stats.create () in
  List.iter (Stats.add acc) l;
  acc

(* One operation's result: its canonical index, output and check. *)
type op = { idx : int; out : string; fail : string option }

let outcome_of_ops ops =
  let ops = List.sort (fun a b -> compare a.idx b.idx) ops in
  {
    attempted = List.length ops;
    failures = List.filter_map (fun o -> o.fail) ops;
    outputs = List.map (fun o -> hash o.out) ops;
    detailed = Stats.create ();
    sampled_insns = 0;
    sampled_measured_insns = 0;
    sampled_detailed_insns = 0;
    analysis_errors = 0;
    paper_gap_pp = None;
  }

let position x l =
  let rec go i = function
    | [] -> invalid_arg "Workloads.position"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

(* Canonical index of a (benchmark, technique) pair: suite order, then
   technique order. *)
let pair_index canon name tech =
  (position name canon * List.length Technique.all)
  + position tech Technique.all

(* Three tiny instances keep the whole smoke run under three seconds. *)
(* Every (benchmark, technique) pair, benchmark-major, in [order]: the
   order Runner.run_all submits them in. *)
let grid order =
  Array.of_list
    (List.concat_map
       (fun (b : Bench.t) -> List.map (fun t -> (b, t)) Technique.all)
       (Array.to_list order))

let suite = function
  | Full -> Sdiq_workloads.Suite.all ()
  | Smoke -> List.filteri (fun i _ -> i < 3) (Sdiq_workloads.Suite.tiny ())

let oracle_of_benches benches =
  List.map (fun (b : Bench.t) -> (b.Bench.prog, b.Bench.init)) benches

(* The public calls [Runner] makes for one pair, in its order, each in
   its own span. [key] names the source program, so repeated prepares
   of one (program, technique) show up as duplicates. *)
let pair ~key ?init ~sched tech prog ~simulate =
  let technique = Technique.name tech in
  Span.with_span "runner.pair"
    ~attrs:[ ("key", key); ("technique", technique); ("sched", Sched.name sched) ]
  @@ fun () ->
  let prepared =
    Span.with_span "technique.prepare"
      ~attrs:[ ("key", key); ("technique", technique) ]
      (fun () -> Technique.prepare tech prog)
  in
  let policy = Span.with_span "technique.policy" (fun () -> Technique.policy tech) in
  let p =
    Span.with_span "pipeline.create" (fun () ->
        Pipeline.create ~config ~policy ~sched prepared)
  in
  Option.iter
    (fun init -> Span.with_span "bench.init" (fun () -> init p.Pipeline.exec))
    init;
  (prepared, simulate p)

let detailed_run ~budget p =
  Span.with_span "pipeline.run" (fun () -> Pipeline.run ~max_insns:budget p)

let map_pool ~domains f arr =
  let pool = Pool.create ~domains () in
  Span.with_span "pool.map_array" (fun () -> Pool.map_array pool ~f arr)

let check_budget ~budget key (s : Stats.t) =
  if s.Stats.committed < budget then
    Some (Printf.sprintf "%s: committed %d < budget %d" key s.Stats.committed budget)
  else if s.Stats.cycles <= 0 then Some (key ^ ": no cycles")
  else None

(* Mean of a figure column in canonical benchmark order (the runner's
   own order is seed-permuted, and float sums depend on order). *)
let canonical_mean canon (c : Experiments.column) =
  let vs = List.map (fun b -> List.assoc b c.Experiments.per_bench) canon in
  Sdiq_util.Stat.mean_of vs

let paper_gap canon exps =
  let gaps =
    List.concat_map
      (fun (e : Experiments.exp) ->
        List.filter_map
          (fun (c : Experiments.column) ->
            Option.map
              (fun p -> Float.abs (canonical_mean canon c -. p))
              c.Experiments.paper_avg)
          e.Experiments.columns)
      exps
  in
  Sdiq_util.Stat.mean_of gaps

(* --- paper-grid: what report.exe does ----------------------------------- *)

let paper_grid size ~seed =
  let budget = match size with Full -> paper_budget | Smoke -> 2_000 in
  let benches, build_s = timed (fun () -> suite size) in
  let canon = List.map (fun (b : Bench.t) -> b.Bench.name) benches in
  let order = permute seed benches in
  let runner =
    Runner.create ~budget ~sched ~domains ~benches:(Array.to_list order) ()
  in
  let collect ?paper_gap_pp results =
    let op (name, tech, s) =
      let key = name ^ "/" ^ Technique.name tech in
      {
        idx = pair_index canon name tech;
        out = key ^ ":" ^ stats_line s;
        fail = check_budget ~budget key s;
      }
    in
    {
      (outcome_of_ops (List.map op results)) with
      detailed = sum_stats (List.map (fun (_, _, s) -> s) results);
      paper_gap_pp;
    }
  in
  let campaign () =
    Runner.run_all runner;
    let exps =
      List.map (fun f -> f runner)
        Experiments.[ fig6; fig7; fig8; fig9; fig10; fig11; fig12 ]
    in
    fun () ->
      collect ~paper_gap_pp:(paper_gap canon exps)
        (List.concat_map
           (fun name ->
             List.map (fun tech -> (name, tech, Runner.run runner name tech))
               Technique.all)
           canon)
  in
  let traced () =
    let results =
      map_pool ~domains
        (fun ((b : Bench.t), tech) ->
          ( b.Bench.name,
            tech,
            snd
              (pair ~key:b.Bench.name ~init:b.Bench.init ~sched tech
                 b.Bench.prog ~simulate:(detailed_run ~budget)) ))
        (grid order)
    in
    fun () -> collect (Array.to_list results)
  in
  {
    build_s;
    ops = List.length benches * List.length Technique.all;
    campaign;
    traced;
    oracle = oracle_of_benches benches;
  }

(* --- policy-grid: report.exe --policy-grid ------------------------------ *)

let policies = [ Sched.oldest_first; Sched.nskip ~n:4; Sched.load_delay ]
let policy_techs = [ Technique.Noop; Technique.Improved ]

let policy_grid size ~seed =
  let budget = match size with Full -> policy_budget | Smoke -> 2_000 in
  let benches, build_s = timed (fun () -> suite size) in
  let runner = Runner.create ~budget ~sched ~domains:1 ~benches () in
  let cells =
    List.concat_map
      (fun (b : Bench.t) ->
        List.concat_map
          (fun tech -> List.map (fun s -> (b, tech, s)) policies)
          policy_techs)
      benches
    |> List.mapi (fun i c -> (i, c))
  in
  (* The seed permutes whole benchmarks, each keeping its cells together:
     shuffling single cells moves peak RSS by ~12% from seed to seed. *)
  let per_bench = List.length policy_techs * List.length policies in
  let order =
    let cells = Array.of_list cells in
    permute seed (List.init (List.length benches) Fun.id)
    |> Array.to_list
    |> List.map (fun bi -> Array.sub cells (bi * per_bench) per_bench)
    |> Array.concat
  in
  (* Per-cell output plus the grid's gate: load_delay only reroutes
     wakeup accounting, so its cycles and commits equal oldest_first's. *)
  let collect results =
    let stats = Array.make (List.length cells) (Stats.create ()) in
    Array.iter (fun (i, s) -> stats.(i) <- s) results;
    let ops =
      List.map
        (fun (i, ((b : Bench.t), tech, s)) ->
          let key =
            String.concat "/"
              [ b.Bench.name; Technique.name tech; Sched.name s ]
          in
          let st = stats.(i) in
          let fail =
            match check_budget ~budget key st with
            | Some f -> Some f
            | None when Sched.suppresses_predicted s ->
              (* cells of one (bench, tech) are consecutive, in
                 [policies] order, oldest_first first *)
              let base = stats.(i - position s policies) in
              if
                st.Stats.cycles <> base.Stats.cycles
                || st.Stats.committed <> base.Stats.committed
              then Some (key ^ ": load_delay timing differs from oldest_first")
              else None
            | None -> None
          in
          { idx = i; out = key ^ ":" ^ stats_line st; fail })
        cells
    in
    { (outcome_of_ops ops) with detailed = sum_stats (Array.to_list stats) }
  in
  let campaign () =
    let results =
      Array.map
        (fun (i, ((b : Bench.t), tech, s)) ->
          (i, Runner.run ~sched:s runner b.Bench.name tech))
        order
    in
    fun () -> collect results
  in
  let traced () =
    let results =
      map_pool ~domains:1
        (fun (i, ((b : Bench.t), tech, s)) ->
          ( i,
            snd
              (pair ~key:b.Bench.name ~init:b.Bench.init ~sched:s tech
                 b.Bench.prog ~simulate:(detailed_run ~budget)) ))
        order
    in
    fun () -> collect results
  in
  {
    build_s;
    ops = List.length cells;
    campaign;
    traced;
    oracle = oracle_of_benches benches;
  }

(* --- sampled-campaign: report.exe --sample ------------------------------ *)

(* Suite.scaled's outer counts divided by [sampled_divisor]. *)
let scaled_down () =
  let open Sdiq_workloads in
  List.map
    (fun (build, outer) -> build (outer / sampled_divisor))
    [
      ((fun outer -> W_gzip.build ~outer ()), 250_000);
      ((fun outer -> W_vpr.build ~outer ()), 380_000);
      ((fun outer -> W_gcc.build ~outer ()), 540_000);
      ((fun outer -> W_mcf.build ~outer ()), 1_300_000);
      ((fun outer -> W_crafty.build ~outer ()), 380_000);
      ((fun outer -> W_parser.build ~outer ()), 260_000);
      ((fun outer -> W_perlbmk.build ~outer ()), 520_000);
      ((fun outer -> W_gap.build ~outer ()), 400);
      ((fun outer -> W_vortex.build ~outer ()), 175_000);
      ((fun outer -> W_bzip2.build ~outer ()), 15_000);
      ((fun outer -> W_twolf.build ~outer ()), 400_000);
    ]

(* Warmup pinned at the DESIGN §13.3 floor (8k) rather than
   Sampling.default, so a change to the default cannot move this
   workload. *)
let geometry = function
  | Full -> { Sampling.ff_len = 46_000; warmup_len = 8_000; window_len = 2_000 }
  | Smoke -> { Sampling.ff_len = 2_000; warmup_len = 300; window_len = 300 }

let sampled_campaign size ~seed =
  let geom = geometry size in
  let min_windows = match size with Full -> sampled_min_windows | Smoke -> 1 in
  let benches, build_s =
    timed (fun () ->
        match size with Full -> scaled_down () | Smoke -> suite Smoke)
  in
  let canon = List.map (fun (b : Bench.t) -> b.Bench.name) benches in
  let order = permute seed benches in
  let runner =
    Runner.create ~sched ~domains ~sample_config:geom
      ~benches:(Array.to_list order) ()
  in
  let collect results =
    let ops =
      List.map
        (fun (name, tech, (r : Sampling.result)) ->
          let key = name ^ "/" ^ Technique.name tech in
          let est (e : Sampling.estimate) =
            Printf.sprintf "%.17g+-%.17g/%d" e.Sampling.mean e.Sampling.ci_half
              e.Sampling.n
          in
          let out =
            Printf.sprintf "%s:insns=%d,measured=%d,windows=%d,ipc=%s,wakeups=%s,energy=%s"
              key r.Sampling.total_insns r.Sampling.detailed_insns
              r.Sampling.windows (est r.Sampling.ipc)
              (est r.Sampling.wakeups_per_insn)
              (est r.Sampling.energy_per_insn)
          in
          let fail =
            if r.Sampling.windows < min_windows then
              Some
                (Printf.sprintf "%s: %d windows < %d" key r.Sampling.windows
                   min_windows)
            else None
          in
          { idx = pair_index canon name tech; out; fail })
        results
    in
    let sum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 results in
    {
      (outcome_of_ops ops) with
      sampled_insns = sum (fun r -> r.Sampling.total_insns);
      sampled_measured_insns = sum (fun r -> r.Sampling.detailed_insns);
      sampled_detailed_insns =
        sum (fun r ->
            r.Sampling.windows * (geom.Sampling.warmup_len + geom.Sampling.window_len));
    }
  in
  let campaign () =
    Runner.run_all_sampled runner;
    fun () ->
      collect
        (List.concat_map
           (fun name ->
             List.map
               (fun tech -> (name, tech, Runner.run_sampled runner name tech))
               Technique.all)
           canon)
  in
  let traced () =
    let results =
      map_pool ~domains
        (fun ((b : Bench.t), tech) ->
          ( b.Bench.name,
            tech,
            snd
              (pair ~key:b.Bench.name ~init:b.Bench.init ~sched tech
                 b.Bench.prog ~simulate:(fun p ->
                   Span.with_span "sampling.sample" (fun () ->
                       Sampling.sample ~config:geom p))) ))
        (grid order)
    in
    fun () -> collect (Array.to_list results)
  in
  {
    build_s;
    ops = List.length benches * List.length Technique.all;
    campaign;
    traced;
    oracle = oracle_of_benches benches;
  }

(* --- random-programs: the make fuzz / qcheck shape ---------------------- *)

let random_programs size ~seed =
  let n = match size with Full -> random_count | Smoke -> 20 in
  let progs, build_s =
    timed (fun () ->
        let rng = Sdiq_util.Rng.create seed in
        Array.init n (fun _ -> Sdiq_workloads.Gen.random_program rng))
  in
  (* Audit, run under every technique to completion, certify the
     improved run. An exception fails this program only. *)
  let program i prog =
    let key = Printf.sprintf "program%d" i in
    Span.with_span "program" ~attrs:[ ("key", key) ] @@ fun () ->
    match
      let audit =
        Span.with_span "analysis.audit" (fun () ->
            Sdiq_analysis.Driver.audit_all prog)
      in
      let runs =
        List.map
          (fun tech ->
            let prepared, stats =
              pair ~key ~sched tech prog ~simulate:(fun p ->
                  Span.with_span "pipeline.run" (fun () -> Pipeline.run p))
            in
            (tech, prepared, stats))
          Technique.extended
      in
      let run_of tech = List.find (fun (t, _, _) -> t = tech) runs in
      let cert =
        Span.with_span "analysis.certificate" (fun () ->
            let _, prepared, stats = run_of Technique.Improved in
            Sdiq_analysis.Certificate.check params config
              (Sdiq_analysis.Certificate.build config prepared)
              stats)
      in
      let _, _, base = run_of Technique.Baseline in
      let _, _, tight = run_of Technique.Tightened in
      (audit, runs, base, tight, cert)
    with
    | exception e ->
      ( { idx = i; out = key ^ ":raised";
          fail = Some (key ^ ": raised " ^ Printexc.to_string e) },
        [], 0 )
    | audit, runs, base, tight, cert ->
      let errors =
        Sdiq_analysis.Finding.errors audit + Sdiq_analysis.Finding.errors cert
      in
      let fail =
        if errors > 0 then Some (Printf.sprintf "%s: %d error findings" key errors)
        else if tight.Stats.committed <> base.Stats.committed then
          Some (key ^ ": tightened commits differ from baseline")
        else None
      in
      let out =
        String.concat ";"
          (Printf.sprintf "%s:audit=%d/%d" key
             (Sdiq_analysis.Finding.errors audit)
             (Sdiq_analysis.Finding.warnings audit)
          :: List.map
               (fun (t, _, s) -> Technique.name t ^ "=" ^ stats_line s)
               runs)
      in
      ({ idx = i; out; fail }, List.map (fun (_, _, s) -> s) runs, errors)
  in
  let collect results =
    let results = Array.to_list results in
    {
      (outcome_of_ops (List.map (fun (o, _, _) -> o) results)) with
      detailed = sum_stats (List.concat_map (fun (_, s, _) -> s) results);
      analysis_errors = List.fold_left (fun acc (_, _, e) -> acc + e) 0 results;
    }
  in
  let campaign () =
    let results = Array.mapi program progs in
    fun () -> collect results
  in
  let traced () =
    let results =
      map_pool ~domains:1 (fun (i, p) -> program i p) (Array.mapi (fun i p -> (i, p)) progs)
    in
    fun () -> collect results
  in
  {
    build_s;
    ops = n;
    campaign;
    traced;
    oracle = Array.to_list (Array.map (fun p -> (p, ignore)) progs);
  }

let all =
  [
    { name = "paper-grid"; default_reps = 5; setup = paper_grid };
    { name = "policy-grid"; default_reps = 3; setup = policy_grid };
    { name = "sampled-campaign"; default_reps = 3; setup = sampled_campaign };
    { name = "random-programs"; default_reps = 5; setup = random_programs };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
