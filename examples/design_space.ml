(* Ablations over the design choices DESIGN.md calls out:

   1. NOOP delivery vs tag delivery with identical analysis values — the
      pure cost of spending fetch/dispatch bandwidth on special NOOPs;
   2. bank granularity: 4-, 8- and 16-entry banks trade gating leverage
      against control overhead;
   3. the analysis conservatism knob (slack entries per region);
   4. the compiler's assumed load latency (the paper assumes L1 hits;
      what if it budgeted for the occasional miss?).

   Each ablation's per-benchmark rows are independent simulations, so
   they run on a shared Sdiq_util.Pool and print in order afterwards.

     dune exec examples/design_space.exe -- [--domains N] *)

module H = Sdiq_harness

let benches () =
  [ Sdiq_workloads.W_gzip.build (); Sdiq_workloads.W_gap.build ();
    Sdiq_workloads.W_vortex.build () ]

let budget = 50_000

let pool =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--domains" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  let domains =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ ->
          Printf.eprintf
            "design_space: --domains must be an integer >= 1 (got %S)\n" v;
          exit 1)
      (find 1)
  in
  Sdiq_util.Pool.create ?domains ()

let ipc_loss base tech =
  (Sdiq_cpu.Stats.ipc base -. Sdiq_cpu.Stats.ipc tech)
  /. Sdiq_cpu.Stats.ipc base *. 100.

let run_with ?(config = Sdiq_cpu.Config.default) ~opts ~mode bench =
  let prog, _ =
    Sdiq_core.Annotate.apply ~opts mode bench.Sdiq_workloads.Bench.prog
  in
  Sdiq_cpu.Pipeline.simulate ~config
    ~policy:(Sdiq_cpu.Policy.software ())
    ~init:bench.Sdiq_workloads.Bench.init ~max_insns:budget prog

let baseline ?(config = Sdiq_cpu.Config.default) bench =
  Sdiq_cpu.Pipeline.simulate ~config
    ~init:bench.Sdiq_workloads.Bench.init ~max_insns:budget
    bench.Sdiq_workloads.Bench.prog

(* Map [row] over the benchmarks on the pool, then print in suite order. *)
let each_bench row print =
  List.iter print
    (Sdiq_util.Pool.map_list pool
       ~f:(fun bench -> (bench.Sdiq_workloads.Bench.name, row bench))
       (benches ()))

(* --- 1. NOOP vs tag delivery ------------------------------------------- *)

let ablation_delivery () =
  Fmt.pr "=== ablation 1: annotation delivery (same analysis values) ===@.";
  Fmt.pr "%-10s %14s %14s@." "bench" "noop loss%" "tagged loss%";
  each_bench
    (fun bench ->
      let base = baseline bench in
      let noop =
        run_with ~opts:Sdiq_core.Options.default ~mode:Sdiq_core.Annotate.Noop
          bench
      in
      let tag =
        run_with ~opts:Sdiq_core.Options.default
          ~mode:Sdiq_core.Annotate.Tagged bench
      in
      (ipc_loss base noop, ipc_loss base tag))
    (fun (name, (noop, tag)) -> Fmt.pr "%-10s %14.2f %14.2f@." name noop tag);
  Fmt.pr "@."

(* --- 2. bank granularity ------------------------------------------------ *)

let ablation_banks () =
  Fmt.pr "=== ablation 2: issue-queue bank granularity ===@.";
  Fmt.pr "%-10s %16s %16s %16s@." "bench" "4/bank off%" "8/bank off%"
    "16/bank off%";
  each_bench
    (fun bench ->
      let off bank_size =
        let config =
          { Sdiq_cpu.Config.default with Sdiq_cpu.Config.iq_bank_size = bank_size }
        in
        let tech =
          run_with ~config ~opts:Sdiq_core.Options.default
            ~mode:Sdiq_core.Annotate.Tagged bench
        in
        let nb = Sdiq_cpu.Config.iq_banks config in
        100.
        *. (1.
            -. float_of_int tech.Sdiq_cpu.Stats.iq_banks_on_sum
               /. (float_of_int nb *. float_of_int tech.Sdiq_cpu.Stats.cycles))
      in
      (off 4, off 8, off 16))
    (fun (name, (o4, o8, o16)) ->
      Fmt.pr "%-10s %16.1f %16.1f %16.1f@." name o4 o8 o16);
  Fmt.pr "@."

(* --- 3. analysis slack --------------------------------------------------- *)

let ablation_slack () =
  Fmt.pr "=== ablation 3: conservatism slack (extra entries per region) ===@.";
  Fmt.pr "%-10s %12s %12s %12s %12s@." "bench" "slack 0" "slack 4" "slack 8"
    "slack 16";
  each_bench
    (fun bench ->
      let base = baseline bench in
      let loss slack =
        let opts = { Sdiq_core.Options.default with Sdiq_core.Options.slack } in
        ipc_loss base (run_with ~opts ~mode:Sdiq_core.Annotate.Tagged bench)
      in
      (loss 0, loss 4, loss 8, loss 16))
    (fun (name, (s0, s4, s8, s16)) ->
      Fmt.pr "%-10s %12.2f %12.2f %12.2f %12.2f@." name s0 s4 s8 s16);
  Fmt.pr "@."

(* --- 4. assumed load latency --------------------------------------------- *)

let ablation_load_latency () =
  Fmt.pr "=== ablation 4: compiler's assumed load latency ===@.";
  Fmt.pr "(the paper assumes L1 hits: extra = 2 cycles)@.";
  Fmt.pr "%-10s %12s %12s %12s@." "bench" "extra 2" "extra 5" "extra 10";
  each_bench
    (fun bench ->
      let base = baseline bench in
      let loss extra =
        let opts =
          { Sdiq_core.Options.default with Sdiq_core.Options.load_hit_extra = extra }
        in
        ipc_loss base (run_with ~opts ~mode:Sdiq_core.Annotate.Tagged bench)
      in
      (loss 2, loss 5, loss 10))
    (fun (name, (l2, l5, l10)) ->
      Fmt.pr "%-10s %12.2f %12.2f %12.2f@." name l2 l5 l10);
  Fmt.pr "@."

let () =
  ablation_delivery ();
  ablation_banks ();
  ablation_slack ();
  ablation_load_latency ()
