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

(* One simulation a study reads, named by the settings the studies vary;
   every other setting is [Config.default] and the technique's recipe.
   [tech] is [Baseline], [Noop] or [Extension]; the unannotated
   baseline's [slack] and [load_hit_extra] stay at their defaults. Two
   studies that read the same [sim] share one run. *)
type sim = {
  tech : Technique.t;
  iq_size : int;
  iq_bank_size : int;
  slack : int;
  load_hit_extra : int;
}

(* The default technique run: the analysis delivered as tags on the
   Table 1 machine. *)
let tagged =
  let config = Sdiq_cpu.Config.default and opts = Sdiq_core.Options.default in
  {
    tech = Technique.Extension;
    iq_size = config.Sdiq_cpu.Config.iq_size;
    iq_bank_size = config.Sdiq_cpu.Config.iq_bank_size;
    slack = opts.Sdiq_core.Options.slack;
    load_hit_extra = opts.Sdiq_core.Options.load_hit_extra;
  }

let baseline = { tagged with tech = Technique.Baseline }

let config s =
  { Sdiq_cpu.Config.default with
    Sdiq_cpu.Config.iq_size = s.iq_size;
    iq_bank_size = s.iq_bank_size }

(* The technique's machine, on a binary its recipe builds with the
   analysis options this simulation varies. *)
let simulate ~budget (bench : Bench.t) s =
  let prog =
    Option.map
      (fun (recipe : Sdiq_analysis.Driver.mode) ->
        let opts =
          { recipe.opts with
            Sdiq_core.Options.iq_size = s.iq_size;
            slack = s.slack;
            load_hit_extra = s.load_hit_extra }
        in
        fst
          (Sdiq_analysis.Driver.apply_mode { recipe with opts }
             bench.Bench.prog))
      (Technique.recipe s.tech)
  in
  Sdiq_cpu.Pipeline.run ~max_insns:budget
    (Technique.build ~config:(config s) ?prog s.tech bench)

(* One table cell: its column label, the simulations it reads and its
   value from their statistics. *)
type cell = {
  label : string;
  reads : sim list;
  value : (sim -> Sdiq_cpu.Stats.t) -> float;
}

(* A study before it runs: its header (no rows yet) and, per benchmark,
   its rows as (suffix to the benchmark's name, cells). *)
type spec = study * (string * cell list) list

let ipc_loss base tech =
  let b = Sdiq_cpu.Stats.ipc base and t = Sdiq_cpu.Stats.ipc tech in
  if b = 0. then 0. else (b -. t) /. b *. 100.

let loss_vs_baseline label tech =
  {
    label;
    reads = [ baseline; tech ];
    value = (fun stats -> ipc_loss (stats baseline) (stats tech));
  }

(* 1. Delivery mechanism: the same analysis values as NOOPs vs as tags —
   the pure stream cost of the special NOOPs (Section 5.3's motivation). *)
let delivery_spec : spec =
  ( {
      id = "ablation-delivery";
      caption = "IPC loss by annotation delivery mechanism";
      unit_ = "% IPC loss";
      rows = [];
    },
    [
      ( "",
        [
          loss_vs_baseline "noop" { tagged with tech = Technique.Noop };
          loss_vs_baseline "tagged" tagged;
        ] );
    ] )

(* 2. Bank granularity: gating leverage of 4/8/16-entry banks. *)
let bank_granularity_spec : spec =
  let point bank_size =
    let sim = { tagged with iq_bank_size = bank_size } in
    {
      label = Printf.sprintf "%d/bank" bank_size;
      reads = [ sim ];
      value =
        (fun stats ->
          let stats = stats sim in
          let nb = Sdiq_cpu.Config.iq_banks (config sim) in
          if stats.Sdiq_cpu.Stats.cycles = 0 then 0.
          else
            100.
            *. (1.
                -. float_of_int stats.Sdiq_cpu.Stats.iq_banks_on_sum
                   /. (float_of_int nb
                      *. float_of_int stats.Sdiq_cpu.Stats.cycles)));
    }
  in
  ( {
      id = "ablation-banks";
      caption = "IQ banks gated off by bank granularity (software technique)";
      unit_ = "% bank-cycles off";
      rows = [];
    },
    [ ("", [ point 4; point 8; point 16 ]) ] )

(* 3. Analysis conservatism: slack entries per region. *)
let slack_spec ?(values = [ 0; 4; 8; 16 ]) () : spec =
  ( {
      id = "ablation-slack";
      caption = "IPC loss vs analysis slack (extra entries per region)";
      unit_ = "% IPC loss";
      rows = [];
    },
    [
      ( "",
        List.map
          (fun s ->
            loss_vs_baseline (Printf.sprintf "slack %d" s)
              { tagged with slack = s })
          values );
    ] )

(* 4. The compiler's assumed load latency: how much the paper's
   "all accesses hit" assumption (Section 4.2) costs. *)
let load_latency_spec ?(values = [ 2; 5; 10 ]) () : spec =
  ( {
      id = "ablation-load-latency";
      caption = "IPC loss vs the compiler's assumed load latency";
      unit_ = "% IPC loss";
      rows = [];
    },
    [
      ( "",
        List.map
          (fun extra ->
            loss_vs_baseline (Printf.sprintf "load+%d" extra)
              { tagged with load_hit_extra = extra })
          values );
    ] )

(* 5. Physical queue size: does the software technique keep its advantage
   on smaller queues? Baseline and technique at 48/64/80 entries. *)
let queue_size_spec : spec =
  ( {
      id = "ablation-queue-size";
      caption = "baseline vs technique across physical queue sizes";
      unit_ = "(mixed)";
      rows = [];
    },
    List.map
      (fun size ->
        let base = { baseline with iq_size = size }
        and tech = { tagged with iq_size = size } in
        let ipc sim stats = Sdiq_cpu.Stats.ipc (stats sim) in
        ( Printf.sprintf "@%d" size,
          [
            { label = "base IPC"; reads = [ base ]; value = ipc base };
            { label = "tech IPC"; reads = [ tech ]; value = ipc tech };
            {
              label = "occ -%";
              reads = [ base; tech ];
              value =
                (fun stats ->
                  let bo = Sdiq_cpu.Stats.avg_iq_occupancy (stats base) in
                  if bo = 0. then 0.
                  else
                    (bo -. Sdiq_cpu.Stats.avg_iq_occupancy (stats tech))
                    /. bo *. 100.);
            };
          ] ))
      [ 48; 64; 80 ] )

(* Run the studies on [benches]: every distinct (benchmark, simulation)
   the studies read is one pool task, run once however many cells read
   it. The results come back in input order, so the tables are identical
   for any domain count. *)
let run ?(budget = 50_000) ?domains benches (specs : spec list) =
  let benches = Array.of_list benches in
  let sims =
    List.concat_map
      (fun (_, rows) ->
        List.concat_map
          (fun (_, cells) -> List.concat_map (fun c -> c.reads) cells)
          rows)
      specs
    |> List.sort_uniq compare |> Array.of_list
  in
  let ns = Array.length sims in
  let stats =
    Sdiq_util.Pool.map_array
      (Sdiq_util.Pool.create ?domains ())
      ~f:(fun i -> simulate ~budget benches.(i / ns) sims.(i mod ns))
      (Array.init (Array.length benches * ns) Fun.id)
  in
  let index sim =
    let rec find i = if sims.(i) = sim then i else find (i + 1) in
    find 0
  in
  List.map
    (fun (header, rows) ->
      let rows_of b (bench : Bench.t) =
        List.map
          (fun (suffix, cells) ->
            let stats sim = stats.((b * ns) + index sim) in
            {
              bench = bench.Bench.name ^ suffix;
              points = List.map (fun c -> (c.label, c.value stats)) cells;
            })
          rows
      in
      { header with
        rows = List.concat (List.mapi rows_of (Array.to_list benches)) })
    specs

let one ?budget benches spec = List.hd (run ?budget ~domains:1 benches [ spec ])

let delivery ?budget benches = one ?budget benches delivery_spec

let bank_granularity ?budget benches =
  one ?budget benches bank_granularity_spec

let slack ?budget ?values benches = one ?budget benches (slack_spec ?values ())

let load_latency ?budget ?values benches =
  one ?budget benches (load_latency_spec ?values ())

let all ?budget ?domains () : study list =
  run ?budget ?domains
    [ W_gzip.build (); W_gap.build (); W_vortex.build () ]
    [
      delivery_spec;
      bank_granularity_spec;
      slack_spec ();
      load_latency_spec ();
      queue_size_spec;
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
