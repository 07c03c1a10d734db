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

(* A study before it runs: its header (no rows yet) and the rows one
   benchmark contributes. Each benchmark's rows are independent
   simulations, so [all] can run every (study, benchmark) cell on a
   pool. *)
type spec = study * (Bench.t -> row list)

let run ((header, rows_of) : spec) benches =
  { header with rows = List.concat_map rows_of benches }

(* 1. Delivery mechanism: the same analysis values as NOOPs vs as tags —
   the pure stream cost of the special NOOPs (Section 5.3's motivation). *)
let delivery_spec ?(budget = 50_000) () : spec =
  ( {
      id = "ablation-delivery";
      caption = "IPC loss by annotation delivery mechanism";
      unit_ = "% IPC loss";
      rows = [];
    },
    fun b ->
      let base = run_baseline ~budget b in
      let noop =
        run_annotated ~opts:Sdiq_core.Options.default
          ~mode:Sdiq_core.Annotate.Noop ~budget b
      in
      let tag =
        run_annotated ~opts:Sdiq_core.Options.default
          ~mode:Sdiq_core.Annotate.Tagged ~budget b
      in
      [
        {
          bench = b.Bench.name;
          points =
            [ ("noop", ipc_loss base noop); ("tagged", ipc_loss base tag) ];
        };
      ] )

(* 2. Bank granularity: gating leverage of 4/8/16-entry banks. *)
let bank_granularity_spec ?(budget = 50_000) () : spec =
  let off config (stats : Sdiq_cpu.Stats.t) =
    let nb = Sdiq_cpu.Config.iq_banks config in
    if stats.Sdiq_cpu.Stats.cycles = 0 then 0.
    else
      100.
      *. (1.
          -. float_of_int stats.Sdiq_cpu.Stats.iq_banks_on_sum
             /. (float_of_int nb *. float_of_int stats.Sdiq_cpu.Stats.cycles))
  in
  ( {
      id = "ablation-banks";
      caption = "IQ banks gated off by bank granularity (software technique)";
      unit_ = "% bank-cycles off";
      rows = [];
    },
    fun b ->
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
      [ { bench = b.Bench.name; points = [ point 4; point 8; point 16 ] } ] )

(* 3. Analysis conservatism: slack entries per region. *)
let slack_spec ?(budget = 50_000) ?(values = [ 0; 4; 8; 16 ]) () : spec =
  ( {
      id = "ablation-slack";
      caption = "IPC loss vs analysis slack (extra entries per region)";
      unit_ = "% IPC loss";
      rows = [];
    },
    fun b ->
      let base = run_baseline ~budget b in
      let point s =
        let opts =
          { Sdiq_core.Options.default with Sdiq_core.Options.slack = s }
        in
        ( Printf.sprintf "slack %d" s,
          ipc_loss base
            (run_annotated ~opts ~mode:Sdiq_core.Annotate.Tagged ~budget b) )
      in
      [ { bench = b.Bench.name; points = List.map point values } ] )

(* 4. The compiler's assumed load latency: how much the paper's
   "all accesses hit" assumption (Section 4.2) costs. *)
let load_latency_spec ?(budget = 50_000) ?(values = [ 2; 5; 10 ]) () : spec =
  ( {
      id = "ablation-load-latency";
      caption = "IPC loss vs the compiler's assumed load latency";
      unit_ = "% IPC loss";
      rows = [];
    },
    fun b ->
      let base = run_baseline ~budget b in
      let point extra =
        let opts =
          { Sdiq_core.Options.default with
            Sdiq_core.Options.load_hit_extra = extra }
        in
        ( Printf.sprintf "load+%d" extra,
          ipc_loss base
            (run_annotated ~opts ~mode:Sdiq_core.Annotate.Tagged ~budget b) )
      in
      [ { bench = b.Bench.name; points = List.map point values } ] )

(* 5. Physical queue size: does the software technique keep its advantage
   on smaller queues? Baseline and technique at 48/64/80 entries. *)
let queue_size_spec ?(budget = 50_000) ?(sizes = [ 48; 64; 80 ]) () : spec =
  ( {
      id = "ablation-queue-size";
      caption = "baseline vs technique across physical queue sizes";
      unit_ = "(mixed)";
      rows = [];
    },
    fun b ->
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
                  let bo = Sdiq_cpu.Stats.avg_iq_occupancy base in
                  if bo = 0. then 0.
                  else
                    (bo -. Sdiq_cpu.Stats.avg_iq_occupancy tech) /. bo *. 100.
                );
              ];
          })
        sizes )

let delivery ?budget benches = run (delivery_spec ?budget ()) benches

let bank_granularity ?budget benches =
  run (bank_granularity_spec ?budget ()) benches

let slack ?budget ?values benches = run (slack_spec ?budget ?values ()) benches

let load_latency ?budget ?values benches =
  run (load_latency_spec ?budget ?values ()) benches

let queue_size ?budget ?sizes benches =
  run (queue_size_spec ?budget ?sizes ()) benches

let default_benches () =
  [ W_gzip.build (); W_gap.build (); W_vortex.build () ]

(* Every (study, benchmark) cell runs as one pool task; the results come
   back in input order, so the tables are identical for any domain
   count. *)
let all ?budget ?domains () : study list =
  let benches = Array.of_list (default_benches ()) in
  let n = Array.length benches in
  let specs =
    [
      delivery_spec ?budget ();
      bank_granularity_spec ?budget ();
      slack_spec ?budget ();
      load_latency_spec ?budget ();
      queue_size_spec ?budget ();
    ]
  in
  let cells =
    Sdiq_util.Pool.map_array
      (Sdiq_util.Pool.create ?domains ())
      ~f:(fun i ->
        let _, rows_of = List.nth specs (i / n) in
        rows_of benches.(i mod n))
      (Array.init (List.length specs * n) Fun.id)
  in
  List.mapi
    (fun s (header, _) ->
      let rows = List.init n (fun b -> cells.((s * n) + b)) in
      { header with rows = List.concat rows })
    specs

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
