(* sdiq-report: regenerate the paper's tables and figures, selectively.

     dune exec bin/report.exe                      # table2, figures, tighten
     dune exec bin/report.exe -- --only fig6,fig8  # a subset
     dune exec bin/report.exe -- --only table1,ablations
     dune exec bin/report.exe -- --markdown        # EXPERIMENTS.md body *)

open Cmdliner
module H = Sdiq_harness

let cli = Cli.tool "report"

let default_ids =
  [ "table2"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
    "tighten" ]

(* Not part of the default report (or the EXPERIMENTS.md body): they
   run only when named, and neither needs the campaign. *)
let extra_ids = [ "table1"; "ablations" ]
let all_ids = default_ids @ extra_ids

let budget_arg =
  let doc = "Committed-instruction budget per run." in
  Arg.(value & opt int 100_000 & info [ "n"; "budget" ] ~docv:"N" ~doc)

let only_arg =
  let doc =
    "Comma-separated experiment ids: table2, fig6..fig12 and tighten (the \
     default set), plus table1 (processor configuration) and ablations \
     (the DESIGN.md ablation studies at half the budget), which run only \
     when named."
  in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"IDS" ~doc)

let domains_arg =
  let doc =
    "Domains for the campaign pool (default: the hardware's recommended \
     domain count); must be at least 1. Figures are identical for every \
     $(docv)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let markdown_arg =
  let doc = "Emit Markdown tables (the body of EXPERIMENTS.md)." in
  Arg.(value & flag & info [ "markdown" ] ~doc)

let sample_arg =
  let doc =
    "Instead of the detailed figures, run the sampled campaign: every \
     (benchmark x technique) pair of the scaled suite under SMARTS \
     sampling, reporting estimates with 95% confidence intervals. \
     Fails if any pair falls below the coverage floor \
     ($(b,--min-insns) instructions, $(b,--min-windows) measured \
     windows)."
  in
  Arg.(value & flag & info [ "sample" ] ~doc)

let min_insns_arg =
  let doc = "Sampled-campaign coverage floor: instructions per pair." in
  Arg.(value & opt int 10_000_000 & info [ "min-insns" ] ~docv:"N" ~doc)

let min_windows_arg =
  let doc = "Sampled-campaign coverage floor: measured windows per pair." in
  Arg.(value & opt int 30 & info [ "min-windows" ] ~docv:"N" ~doc)

let policy_arg =
  let doc =
    "Select/wakeup scheduler policy for every run (oldest_first, \
     nskip:N, load_delay; default oldest_first). Unknown names are \
     rejected, like a typo'd $(b,--only) id."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)

let policy_grid_arg =
  let doc =
    "Run the scheduler-policy grid instead of the figures: every \
     benchmark under {oldest_first, nskip:4, load_delay} x {noop, \
     improved}, print the select-scan and IQ energy of each cell, and \
     write the grid as JSON to $(docv). Fails if nskip:4 does not cut \
     scan energy on at least three benchmarks, or if load_delay \
     (timing-identical by construction) disturbs cycles or committed \
     work."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "policy-grid" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Append a run record (git describe, config/policy/budget digest, \
     campaign geometry, wall clock, total IQ energy by technique) to \
     the JSONL ledger $(docv). Gate it with benchdiff.exe. Figures \
     runs only (not $(b,--sample) or $(b,--policy-grid))."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let trace_spans_arg =
  let doc =
    "Write the campaign's host-side span trace to $(docv) as Chrome \
     trace-event JSON (Perfetto-loadable): campaign/pair/pool spans \
     with one track per domain, plus memo and pool counters."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE" ~doc)

(* The sampled campaign: the scaled suite (>= 10M oracle instructions
   per program) under SMARTS sampling for every technique, with a hard
   coverage guard — an estimate whose run was too short to support its
   interval must fail the build, not print a plausible-looking table. *)
let run_sampled_campaign ?sched ?domains ~min_insns ~min_windows () =
  let r =
    H.Runner.create ~benches:(Sdiq_workloads.Suite.scaled ()) ?sched ?domains
      ()
  in
  H.Runner.run_all_sampled r;
  let shortfalls = ref [] in
  Fmt.pr
    "## sampled campaign (estimates ± 95%% CI; scaled suite)@.@.";
  List.iter
    (fun bench ->
      List.iter
        (fun tech ->
          let res = H.Runner.run_sampled r bench tech in
          Fmt.pr "%-8s %-10s %a@." bench (H.Technique.name tech)
            H.Sampling.pp res;
          if
            res.H.Sampling.total_insns < min_insns
            || res.H.Sampling.windows < min_windows
          then shortfalls := (bench, tech, res) :: !shortfalls)
        H.Technique.all)
    (H.Runner.bench_names r);
  Option.iter (Fmt.pr "@.%a@." H.Runner.pp_campaign)
    (H.Runner.campaign_stats r);
  match List.rev !shortfalls with
  | [] ->
    Fmt.pr "@.sampled campaign: every pair >= %d instructions and %d \
            windows@."
      min_insns min_windows
  | short ->
    List.iter
      (fun (bench, tech, (res : H.Sampling.result)) ->
        Fmt.epr
          "coverage shortfall: %s/%s ran %d instructions over %d windows \
           (floor: %d instructions, %d windows)@."
          bench (H.Technique.name tech) res.H.Sampling.total_insns
          res.H.Sampling.windows min_insns min_windows)
      short;
    exit 1

(* The tightened-vs-improved grid: same analysis machinery, minimal
   windows. The tightened binary's committed work must match the
   baseline's (tag delivery leaves the stream untouched) and its IQ
   energy must not exceed improved's — the optimizer claim, measured. *)
let run_tighten ~markdown r =
  let params = Sdiq_power.Params.default in
  let energy stats =
    let e = Sdiq_power.Iq_power.technique params stats in
    e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_
  in
  if markdown then begin
    Fmt.pr "### tighten — IQ energy, improved vs tightened@.@.";
    Fmt.pr
      "| benchmark | improved | tightened | ratio | committed = baseline \
       |@.|---|---|---|---|---|@."
  end
  else Fmt.pr "## tighten: IQ energy, improved vs tightened@.";
  let worse = ref [] in
  let tot_imp = ref 0. and tot_tight = ref 0. in
  List.iter
    (fun bench ->
      let base = H.Runner.run r bench H.Technique.Baseline in
      let imp = H.Runner.run r bench H.Technique.Improved in
      let tight = H.Runner.run r bench H.Technique.Tightened in
      let ei = energy imp and et = energy tight in
      tot_imp := !tot_imp +. ei;
      tot_tight := !tot_tight +. et;
      let same =
        tight.Sdiq_cpu.Stats.committed = base.Sdiq_cpu.Stats.committed
      in
      if not same then worse := (bench ^ " (commit drift)") :: !worse;
      if et > ei then worse := bench :: !worse;
      if markdown then
        Fmt.pr "| %s | %.1f | %.1f | %.3f | %s |@." bench ei et (et /. ei)
          (if same then "yes" else "NO")
      else
        Fmt.pr "%-8s improved %12.1f  tightened %12.1f  ratio %.3f%s@." bench
          ei et (et /. ei)
          (if same then "" else "  COMMIT DRIFT"))
    (H.Runner.bench_names r);
  if markdown then
    Fmt.pr "| **total** | **%.1f** | **%.1f** | **%.3f** | |@.@." !tot_imp
      !tot_tight
      (!tot_tight /. !tot_imp)
  else
    Fmt.pr "total    improved %12.1f  tightened %12.1f  ratio %.3f@." !tot_imp
      !tot_tight
      (!tot_tight /. !tot_imp);
  match !worse with
  | [] -> ()
  | w ->
    Fmt.epr "tighten grid regressions: %s@." (String.concat ", " w);
    exit 1

(* The scheduler-policy grid: every benchmark under three policies and
   two techniques, from one runner (the policy is part of the memo key).
   Two hard gates ride the table, mirroring [run_tighten]: load_delay
   must leave cycles and committed work untouched (it only moves CAM
   comparisons from the gated ledger to the suppressed one — see
   lib/cpu/sched.ml; nskip is exempt, it genuinely trades ILP for scan
   energy), and the bounded scan must actually cut scan energy on at
   least three benchmarks, or the grid fails the build. *)
let run_policy_grid ~budget (file, oc) =
  let params = Sdiq_power.Params.default in
  let policies =
    [
      Sdiq_cpu.Sched.oldest_first;
      Sdiq_cpu.Sched.nskip ~n:4;
      Sdiq_cpu.Sched.load_delay;
    ]
  in
  let techs = [ H.Technique.Noop; H.Technique.Improved ] in
  let r = H.Runner.create ~budget () in
  let scan_energy (s : Sdiq_cpu.Stats.t) =
    float_of_int s.Sdiq_cpu.Stats.iq_scan_entries
    *. params.Sdiq_power.Params.e_scan_entry
  in
  let iq_energy (s : Sdiq_cpu.Stats.t) =
    let e = Sdiq_power.Iq_power.technique params s in
    e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_
  in
  Fmt.pr "## scheduler policy grid ({%s} x {noop, improved})@."
    (String.concat ", " (List.map Sdiq_cpu.Sched.name policies));
  let cells = ref [] in
  let drift = ref [] in
  List.iter
    (fun bench ->
      List.iter
        (fun tech ->
          let base = H.Runner.run r bench tech in
          List.iter
            (fun sched ->
              let s = H.Runner.run ~sched r bench tech in
              if
                Sdiq_cpu.Sched.suppresses_predicted sched
                && (s.Sdiq_cpu.Stats.committed
                      <> base.Sdiq_cpu.Stats.committed
                   || s.Sdiq_cpu.Stats.cycles <> base.Sdiq_cpu.Stats.cycles)
              then
                drift :=
                  Printf.sprintf "%s/%s/%s" bench (H.Technique.name tech)
                    (Sdiq_cpu.Sched.name sched)
                  :: !drift;
              cells := (bench, tech, sched, s) :: !cells;
              Fmt.pr
                "%-8s %-10s %-13s cycles %8d  scan %8d (E %10.1f)  \
                 suppressed %9d  IQ energy %12.1f@."
                bench (H.Technique.name tech) (Sdiq_cpu.Sched.name sched)
                s.Sdiq_cpu.Stats.cycles s.Sdiq_cpu.Stats.iq_scan_entries
                (scan_energy s) s.Sdiq_cpu.Stats.iq_wakeups_suppressed
                (iq_energy s))
            policies)
        techs)
    (H.Runner.bench_names r);
  let cells = List.rev !cells in
  (* JSON artifact for CI: one object per grid cell. *)
  let fnum = Printf.sprintf "%.17g" in
  Printf.fprintf oc {|{"budget":%d,"e_scan_entry":%s,"cells":[%s]}|} budget
    (fnum params.Sdiq_power.Params.e_scan_entry)
    (String.concat ","
       (List.map
          (fun (bench, tech, sched, (s : Sdiq_cpu.Stats.t)) ->
            Printf.sprintf
              {|{"bench":"%s","technique":"%s","policy":"%s","cycles":%d,"committed":%d,"scan_entries":%d,"scan_energy":%s,"wakeups_gated":%d,"wakeups_suppressed":%d,"iq_energy":%s}|}
              bench (H.Technique.name tech) (Sdiq_cpu.Sched.name sched)
              s.Sdiq_cpu.Stats.cycles s.Sdiq_cpu.Stats.committed
              s.Sdiq_cpu.Stats.iq_scan_entries
              (fnum (scan_energy s))
              s.Sdiq_cpu.Stats.iq_wakeups_gated
              s.Sdiq_cpu.Stats.iq_wakeups_suppressed
              (fnum (iq_energy s)))
          cells));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.policy grid: %d cells -> %s@." (List.length cells) file;
  (* Gate 1: load_delay is timing-identical to oldest_first. *)
  (match List.rev !drift with
  | [] -> ()
  | d ->
    Fmt.epr "policy grid: load_delay timing drift on %s@."
      (String.concat ", " d);
    exit 1);
  (* Gate 2: the bounded scan pays off where the ISSUE demands it. *)
  let reduced =
    List.filter
      (fun bench ->
        let scan_of sched =
          let s = H.Runner.run ~sched r bench H.Technique.Improved in
          s.Sdiq_cpu.Stats.iq_scan_entries
        in
        scan_of (Sdiq_cpu.Sched.nskip ~n:4)
        < scan_of Sdiq_cpu.Sched.oldest_first)
      (H.Runner.bench_names r)
  in
  Fmt.pr "nskip:4 cuts scan energy on %d/%d benchmarks (%s)@."
    (List.length reduced)
    (List.length (H.Runner.bench_names r))
    (String.concat ", " reduced);
  if List.length reduced < 3 then begin
    Fmt.epr
      "policy grid: nskip:4 reduced scan energy on only %d benchmarks \
       (need >= 3)@."
      (List.length reduced);
    exit 1
  end

let exp_of_id r = function
  | "fig6" -> Some (H.Experiments.fig6 r)
  | "fig7" -> Some (H.Experiments.fig7 r)
  | "fig8" -> Some (H.Experiments.fig8 r)
  | "fig9" -> Some (H.Experiments.fig9 r)
  | "fig10" -> Some (H.Experiments.fig10 r)
  | "fig11" -> Some (H.Experiments.fig11 r)
  | "fig12" -> Some (H.Experiments.fig12 r)
  | _ -> None

let pp_exp_markdown ppf (e : H.Experiments.exp) =
  Fmt.pf ppf "### %s — %s@.@." e.H.Experiments.id e.H.Experiments.caption;
  let benches =
    match e.H.Experiments.columns with
    | [] -> []
    | c :: _ -> List.map fst c.H.Experiments.per_bench
  in
  Fmt.pf ppf "| benchmark |%s@."
    (String.concat ""
       (List.map
          (fun (c : H.Experiments.column) ->
            " " ^ c.H.Experiments.title ^ " |")
          e.H.Experiments.columns));
  Fmt.pf ppf "|---|%s@."
    (String.concat ""
       (List.map (fun _ -> "---|") e.H.Experiments.columns));
  List.iter
    (fun b ->
      Fmt.pf ppf "| %s |" b;
      List.iter
        (fun (c : H.Experiments.column) ->
          match List.assoc_opt b c.H.Experiments.per_bench with
          | Some v -> Fmt.pf ppf " %.2f |" v
          | None -> Fmt.pf ppf " - |")
        e.H.Experiments.columns;
      Fmt.pf ppf "@.")
    benches;
  Fmt.pf ppf "| **SPECINT (measured)** |%s@."
    (String.concat ""
       (List.map
          (fun c -> Fmt.str " **%.2f** |" (H.Experiments.avg_of c))
          e.H.Experiments.columns));
  Fmt.pf ppf "| *paper* |%s@."
    (String.concat ""
       (List.map
          (fun (c : H.Experiments.column) ->
            match c.H.Experiments.paper_avg with
            | Some v -> Fmt.str " *%.2f* |" v
            | None -> " - |")
          e.H.Experiments.columns));
  List.iter
    (fun (c : H.Experiments.column) ->
      List.iter
        (fun (label, v, paper) ->
          match paper with
          | Some pv ->
            Fmt.pf ppf "@.Extra bar [%s] %s: measured %.2f, paper %.2f@."
              c.H.Experiments.title label v pv
          | None ->
            Fmt.pf ppf "@.Extra bar [%s] %s: measured %.2f@."
              c.H.Experiments.title label v)
        c.H.Experiments.extras)
    e.H.Experiments.columns;
  Fmt.pf ppf "@."

let pp_table2_markdown ppf rows =
  Fmt.pf ppf "### table2 — compilation time, baseline vs limited@.@.";
  Fmt.pf ppf
    "| benchmark | baseline (ms) | limited (ms) | ratio | paper baseline \
     (min) | paper limited (min) |@.|---|---|---|---|---|---|@.";
  List.iter
    (fun (r : H.Experiments.table2_row) ->
      let ratio =
        if r.H.Experiments.baseline_ms > 0. then
          r.H.Experiments.limited_ms /. r.H.Experiments.baseline_ms
        else 0.
      in
      Fmt.pf ppf "| %s | %.2f | %.2f | %.1fx | %.0f | %.0f |@."
        r.H.Experiments.bench r.H.Experiments.baseline_ms
        r.H.Experiments.limited_ms ratio r.H.Experiments.paper_baseline_min
        r.H.Experiments.paper_limited_min)
    rows;
  Fmt.pf ppf "@."

let run budget only domains markdown sample min_insns min_windows policy
    policy_grid ledger trace_spans =
  let domains = Cli.domains cli domains in
  let sched = Cli.policy cli policy in
  let ids =
    match only with
    | None -> default_ids
    | Some s -> String.split_on_char ',' s |> List.map String.trim
  in
  (* Validate before simulating anything: a typo'd id must fail loudly,
     not silently produce a report missing the experiment asked for. *)
  (match List.filter (fun id -> not (List.mem id all_ids)) ids with
  | [] -> ()
  | unknown ->
    Cli.fail cli "unknown experiment id%s: %s; valid ids: %s"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " all_ids));
  Cli.distinct_outputs cli
    [
      ("policy-grid", policy_grid);
      ("ledger", ledger);
      ("trace-spans", trace_spans);
    ];
  (* Only the figures campaign appends a ledger record: refuse a ledger
     no record would reach before the file is created. *)
  let campaign = List.exists (fun id -> not (List.mem id extra_ids)) ids in
  if ledger <> None then begin
    let refuse flag =
      Cli.fail cli
        "--ledger records the figures campaign, which %s does not run" flag
    in
    if policy_grid <> None then refuse "--policy-grid"
    else if sample then refuse "--sample"
    else if not campaign then refuse ("--only " ^ String.concat "," ids)
  end;
  let policy_grid = Cli.output cli "policy-grid" policy_grid in
  let ledger = Cli.output ~append:true cli "ledger" ledger in
  let write_spans = Cli.trace_spans cli trace_spans in
  (match policy_grid with
  | Some out -> run_policy_grid ~budget out
  | None ->
  if sample then
    run_sampled_campaign ?sched ?domains ~min_insns ~min_windows ()
  else begin
  let r = H.Runner.create ~budget ?sched ?domains () in
  (* Run the whole campaign up front: the figures then read memoised
     pairs, and campaign_stats is populated for every invocation that
     names a campaign experiment, --only included. *)
  if campaign then H.Runner.run_all r;
  List.iter
    (fun id ->
      if id = "table1" then
        Fmt.pr "== table1: processor configuration ==@.%a@.@."
          Sdiq_cpu.Config.pp Sdiq_cpu.Config.default
      else if id = "ablations" then
        List.iter
          (Fmt.pr "%a@." H.Ablations.pp_study)
          (H.Ablations.all ~budget:(budget / 2) ?domains ())
      else if id = "table2" then
        let rows = H.Experiments.table2 r in
        if markdown then Fmt.pr "%a" pp_table2_markdown rows
        else Fmt.pr "%a@." H.Experiments.pp_table2 rows
      else if id = "tighten" then run_tighten ~markdown r
      else
        match exp_of_id r id with
        | Some e ->
          if markdown then Fmt.pr "%a" pp_exp_markdown e
          else Fmt.pr "%a@." H.Experiments.pp_exp e
        | None ->
          (* Unreachable after validation; keep a hard failure rather
             than a silent skip should the id list and the dispatch
             ever drift apart again. *)
          Fmt.epr "experiment %S is listed but not implemented@." id;
          exit 1)
    ids;
  match H.Runner.campaign_stats r with
  | None -> ()
  | Some c ->
    Fmt.pr "%a@." H.Runner.pp_campaign c;
    Option.iter
      (fun (file, oc) ->
        let digest =
          Sdiq_obs.Ledger.config_digest
            ~extra:(Printf.sprintf "budget=%d" budget)
            Sdiq_cpu.Config.default
            (Option.value sched ~default:Sdiq_cpu.Sched.default)
        in
        let record =
          Sdiq_obs.Ledger.make ~kind:"report" ~digest
            ~domains:c.H.Runner.domains_used ~pairs:c.H.Runner.pairs_total
            ~wall_s:c.H.Runner.wall_s ~energy:(H.Runner.energy_totals r) ()
        in
        Sdiq_obs.Ledger.output oc record;
        close_out oc;
        Fmt.pr "ledger: appended %s record to %s@."
          record.Sdiq_obs.Ledger.kind file)
      ledger
  end);
  write_spans ()

let () =
  let doc = "regenerate the paper's tables and figures" in
  Cli.eval cli ~doc
    Term.(
      const run $ budget_arg $ only_arg $ domains_arg $ markdown_arg
      $ sample_arg $ min_insns_arg $ min_windows_arg $ policy_arg
      $ policy_grid_arg $ ledger_arg $ trace_spans_arg)
