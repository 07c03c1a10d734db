(* sdiq-profile: region-level attribution tables over a (benchmark x
   technique) grid, from dedicated profiled simulations.

     dune exec bin/profile.exe -- --bench gzip --technique noop
     dune exec bin/profile.exe -- --bench gzip,mcf --technique noop,improved \
       --top 8 --slack
     dune exec bin/profile.exe -- --json > metrics.json *)

open Cmdliner
module H = Sdiq_harness
module Obs = Sdiq_obs

let cli = Cli.tool "profile"

let benches_arg =
  let doc =
    "Comma-separated benchmarks (default: every built-in benchmark). \
     Available: " ^ String.concat ", " (Sdiq_workloads.Suite.names ()) ^ "."
  in
  Arg.(value & opt string "all" & info [ "b"; "bench" ] ~docv:"NAMES" ~doc)

let techniques_arg =
  let doc =
    "Comma-separated techniques ("
    ^ String.concat ", " (List.map H.Technique.name H.Technique.extended)
    ^ ")."
  in
  Arg.(value & opt string "noop" & info [ "t"; "technique" ] ~docv:"TECHS" ~doc)

let budget_arg =
  let doc = "Committed-instruction budget per run." in
  Arg.(value & opt int 100_000 & info [ "n"; "budget" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Domains for the profiling pool (default: recommended count); must \
     be at least 1."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let top_arg =
  let doc = "Show only the $(docv) highest-energy regions per pair." in
  Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N" ~doc)

let slack_arg =
  let doc =
    "Also print the annotation-slack report: granted Iqset window vs the \
     peak occupancy observed while the region was current; positive slack \
     marks an over-provisioned annotation."
  in
  Arg.(value & flag & info [ "slack" ] ~doc)

let json_arg =
  let doc = "Emit one JSON document (pairs + campaign metrics) to stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let csv_arg =
  let doc = "Emit one CSV table (all pairs' regions) to stdout." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let policy_arg =
  let doc =
    "Select/wakeup scheduler policy for every profiled run \
     (oldest_first, nskip:N, load_delay; default oldest_first). The \
     policy tags every JSON and CSV row. Unknown names are rejected."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"NAME" ~doc)

let openmetrics_arg =
  let doc =
    "Also write the campaign-wide metrics registry (the merge of every \
     pair's streaming metrics) to $(docv) as an OpenMetrics text \
     exposition — promtool-checkable, ends with # EOF. Combines with \
     any of the table/JSON/CSV outputs."
  in
  Arg.(
    value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_benches s =
  if s = "all" then Sdiq_workloads.Suite.all ()
  else List.map (Cli.bench cli) (split_commas s)

let parse_techniques s =
  match split_commas s with
  | [] -> Cli.fail cli "--technique: no techniques given"
  | names ->
    List.map
      (fun n ->
        match H.Technique.of_string n with
        | Ok t -> t
        | Error e -> Cli.fail cli "--technique: %s" e)
      names

let print_json budget sched pairs campaign =
  let pair_docs =
    List.map
      (fun (bench, tech, prof) ->
        Printf.sprintf
          {|{"bench":"%s","technique":"%s","policy":"%s","regions":%d,"profile":%s}|}
          bench (H.Technique.name tech)
          (Sdiq_cpu.Sched.name sched)
          (Obs.Region.count (Obs.Profiler.map prof))
          (Obs.Profiler.to_json prof))
      pairs
  in
  print_string
    (Printf.sprintf
       {|{"budget":%d,"policy":"%s","pairs":[%s],"campaign_metrics":%s}|}
       budget
       (Sdiq_cpu.Sched.name sched)
       (String.concat "," pair_docs)
       (Obs.Metrics.to_json campaign));
  print_newline ()

let print_csv sched pairs =
  Fmt.pr "bench,technique,policy,%s@." Obs.Profiler.csv_header;
  List.iter
    (fun (bench, tech, prof) ->
      List.iter
        (fun row ->
          Fmt.pr "%s,%s,%s,%s@." bench (H.Technique.name tech)
            (Sdiq_cpu.Sched.name sched) row)
        (Obs.Profiler.csv_rows prof))
    pairs

let print_slack prof =
  match Obs.Profiler.slack prof with
  | [] -> Fmt.pr "  (no granted Iqset windows under this delivery)@."
  | entries ->
    Fmt.pr "  %-4s %-14s %-9s %7s %7s %5s %5s@." "id" "proc" "kind" "start"
      "granted" "peak" "slack";
    List.iter
      (fun (e : Obs.Profiler.slack_entry) ->
        let info = e.Obs.Profiler.entry_info in
        Fmt.pr "  R%-3d %-14s %-9s %7d %7s %5d %5d%s@." info.Obs.Region.id
          (if info.Obs.Region.proc = "" then "-" else info.Obs.Region.proc)
          (Obs.Region.kind_name info.Obs.Region.kind)
          info.Obs.Region.start
          (match info.Obs.Region.granted with
          | Some g -> string_of_int g
          | None -> "-")
          e.Obs.Profiler.peak e.Obs.Profiler.slack
          (if e.Obs.Profiler.slack > 0 then "  over-provisioned" else ""))
      entries

let print_tables top slack sched pairs =
  List.iter
    (fun (bench, tech, prof) ->
      Fmt.pr "@.%s / %s (policy %s, %d regions):@." bench
        (H.Technique.name tech)
        (Sdiq_cpu.Sched.name sched)
        (Obs.Region.count (Obs.Profiler.map prof));
      Fmt.pr "%a@." (Obs.Profiler.pp_table ?top) prof;
      if slack then begin
        Fmt.pr "annotation slack:@.";
        print_slack prof
      end)
    pairs

let run benches techniques budget domains top slack json csv policy
    openmetrics =
  let sched =
    Option.value (Cli.policy cli policy) ~default:Sdiq_cpu.Sched.default
  in
  let benches = parse_benches benches in
  let techniques = parse_techniques techniques in
  let domains = Cli.domains cli domains in
  let openmetrics = Cli.output cli "openmetrics" openmetrics in
  let runner = H.Runner.create ~budget ~benches ~sched ?domains () in
  let pairs, campaign = H.Runner.profile_all ~techniques runner in
  if json then print_json budget sched pairs campaign
  else if csv then print_csv sched pairs
  else print_tables top slack sched pairs;
  Option.iter
    (fun (file, oc) ->
      output_string oc (Obs.Metrics.to_openmetrics campaign);
      close_out oc;
      Fmt.pr "openmetrics: %s@." file)
    openmetrics

let () =
  let doc = "region-level attribution profiles of simulated benchmarks" in
  Cli.eval cli ~doc
    Term.(
      const run $ benches_arg $ techniques_arg $ budget_arg $ domains_arg
      $ top_arg $ slack_arg $ json_arg $ csv_arg $ policy_arg
      $ openmetrics_arg)
