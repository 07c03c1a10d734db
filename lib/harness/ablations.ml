(* Ablation studies over the design choices DESIGN.md calls out. These go
   beyond the paper's evaluation but use only its machinery;
   `report.exe --only ablations` drives this module. *)

open Sdiq_workloads

type row = {
  bench : string;
  points : (string * float) list; (* label -> measured value *)
}

type study = {
  id : string;
  caption : string;
  unit_ : string;
  rows : row list;
}

let ipc_loss base tech =
  let b = Sdiq_cpu.Stats.ipc base and t = Sdiq_cpu.Stats.ipc tech in
  if b = 0. then 0. else (b -. t) /. b *. 100.

let run_annotated ?(config = Sdiq_cpu.Config.default) ~opts ~mode ~budget
    (bench : Bench.t) =
  let prog, _ = Sdiq_core.Annotate.apply ~opts mode bench.Bench.prog in
  Sdiq_cpu.Pipeline.simulate ~config
    ~policy:(Sdiq_cpu.Policy.software ())
    ~init:bench.Bench.init ~max_insns:budget prog

let run_baseline ?config ~budget (bench : Bench.t) =
  Sdiq_cpu.Pipeline.run ~max_insns:budget
    (Technique.build ?config Technique.Baseline bench)

(* 1. Delivery mechanism: the same analysis values as NOOPs vs as tags —
   the pure stream cost of the special NOOPs (Section 5.3's motivation). *)
let delivery ?(budget = 50_000) benches : study =
  let rows =
    List.map
      (fun (b : Bench.t) ->
        let base = run_baseline ~budget b in
        let noop =
          run_annotated ~opts:Sdiq_core.Options.default
            ~mode:Sdiq_core.Annotate.Noop ~budget b
        in
        let tag =
          run_annotated ~opts:Sdiq_core.Options.default
            ~mode:Sdiq_core.Annotate.Tagged ~budget b
        in
        {
          bench = b.Bench.name;
          points =
            [ ("noop", ipc_loss base noop); ("tagged", ipc_loss base tag) ];
        })
      benches
  in
  {
    id = "ablation-delivery";
    caption = "IPC loss by annotation delivery mechanism";
    unit_ = "% IPC loss";
    rows;
  }

(* 2. Bank granularity: gating leverage of 4/8/16-entry banks. *)
let bank_granularity ?(budget = 50_000) benches : study =
  let off config (stats : Sdiq_cpu.Stats.t) =
    let nb = Sdiq_cpu.Config.iq_banks config in
    if stats.Sdiq_cpu.Stats.cycles = 0 then 0.
    else
      100.
      *. (1.
          -. float_of_int stats.Sdiq_cpu.Stats.iq_banks_on_sum
             /. (float_of_int nb *. float_of_int stats.Sdiq_cpu.Stats.cycles))
  in
  let rows =
    List.map
      (fun (b : Bench.t) ->
        let point bank_size =
          let config =
            { Sdiq_cpu.Config.default with
              Sdiq_cpu.Config.iq_bank_size = bank_size }
          in
          let stats =
            run_annotated ~config ~opts:Sdiq_core.Options.default
              ~mode:Sdiq_core.Annotate.Tagged ~budget b
          in
          (Printf.sprintf "%d/bank" bank_size, off config stats)
        in
        { bench = b.Bench.name; points = [ point 4; point 8; point 16 ] })
      benches
  in
  {
    id = "ablation-banks";
    caption = "IQ banks gated off by bank granularity (software technique)";
    unit_ = "% bank-cycles off";
    rows;
  }

(* 3. Analysis conservatism: slack entries per region. *)
let slack ?(budget = 50_000) ?(values = [ 0; 4; 8; 16 ]) benches : study =
  let rows =
    List.map
      (fun (b : Bench.t) ->
        let base = run_baseline ~budget b in
        let point s =
          let opts =
            { Sdiq_core.Options.default with Sdiq_core.Options.slack = s }
          in
          ( Printf.sprintf "slack %d" s,
            ipc_loss base
              (run_annotated ~opts ~mode:Sdiq_core.Annotate.Tagged ~budget b)
          )
        in
        { bench = b.Bench.name; points = List.map point values })
      benches
  in
  {
    id = "ablation-slack";
    caption = "IPC loss vs analysis slack (extra entries per region)";
    unit_ = "% IPC loss";
    rows;
  }

(* 4. The compiler's assumed load latency: how much the paper's
   "all accesses hit" assumption (Section 4.2) costs. *)
let load_latency ?(budget = 50_000) ?(values = [ 2; 5; 10 ]) benches : study =
  let rows =
    List.map
      (fun (b : Bench.t) ->
        let base = run_baseline ~budget b in
        let point extra =
          let opts =
            { Sdiq_core.Options.default with
              Sdiq_core.Options.load_hit_extra = extra }
          in
          ( Printf.sprintf "load+%d" extra,
            ipc_loss base
              (run_annotated ~opts ~mode:Sdiq_core.Annotate.Tagged ~budget b)
          )
        in
        { bench = b.Bench.name; points = List.map point values })
      benches
  in
  {
    id = "ablation-load-latency";
    caption = "IPC loss vs the compiler's assumed load latency";
    unit_ = "% IPC loss";
    rows;
  }

(* 5. Physical queue size: does the software technique keep its advantage
   on smaller queues? Baseline and technique at 48/64/80 entries. *)
let queue_size ?(budget = 50_000) ?(sizes = [ 48; 64; 80 ]) benches : study =
  let rows =
    List.concat_map
      (fun (b : Bench.t) ->
        List.map
          (fun size ->
            let config =
              { Sdiq_cpu.Config.default with Sdiq_cpu.Config.iq_size = size }
            in
            let base = run_baseline ~config ~budget b in
            let opts =
              { Sdiq_core.Options.default with Sdiq_core.Options.iq_size = size }
            in
            let tech =
              run_annotated ~config ~opts ~mode:Sdiq_core.Annotate.Tagged
                ~budget b
            in
            {
              bench = Printf.sprintf "%s@%d" b.Bench.name size;
              points =
                [
                  ("base IPC", Sdiq_cpu.Stats.ipc base);
                  ("tech IPC", Sdiq_cpu.Stats.ipc tech);
                  ( "occ -%",
                    (let bo = Sdiq_cpu.Stats.avg_iq_occupancy base in
                     if bo = 0. then 0.
                     else
                       (bo -. Sdiq_cpu.Stats.avg_iq_occupancy tech) /. bo
                       *. 100.) );
                ];
            })
          sizes)
      benches
  in
  {
    id = "ablation-queue-size";
    caption = "baseline vs technique across physical queue sizes";
    unit_ = "(mixed)";
    rows;
  }

let default_benches () =
  [ W_gzip.build (); W_gap.build (); W_vortex.build () ]

let all ?budget () : study list =
  let benches = default_benches () in
  [
    delivery ?budget benches;
    bank_granularity ?budget benches;
    slack ?budget benches;
    load_latency ?budget benches;
    queue_size ?budget benches;
  ]

let pp_study ppf s =
  Fmt.pf ppf "== %s: %s [%s] ==@." s.id s.caption s.unit_;
  (match s.rows with
  | [] -> ()
  | r :: _ ->
    Fmt.pf ppf "%-14s" "";
    List.iter (fun (l, _) -> Fmt.pf ppf "%14s" l) r.points;
    Fmt.pf ppf "@.");
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s" r.bench;
      List.iter (fun (_, v) -> Fmt.pf ppf "%14.2f" v) r.points;
      Fmt.pf ppf "@.")
    s.rows
