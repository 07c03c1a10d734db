(* sdiq-lint: static analysis over the built-in benchmarks — annotation
   soundness audit, delivery integrity, workload lints and the
   register-pressure check — with structured findings, waiver files,
   machine-readable JSON output and a graded exit status:

     2  error-severity findings survive the waivers
     1  only warnings survive (or stale waivers linger)
     0  clean
     64 usage errors

     dune exec bin/lint.exe --                       # all benches, all modes
     dune exec bin/lint.exe -- --bench gcc -m noop --dot _build/dot
     dune exec bin/lint.exe -- --quiet               # summaries only
     dune exec bin/lint.exe -- --waivers waivers.txt --json findings.json *)

open Cmdliner
module Finding = Sdiq_analysis.Finding
module Driver = Sdiq_analysis.Driver
module Waiver = Sdiq_analysis.Waiver

let bench_arg =
  let doc =
    "Benchmark to lint (default: every built-in benchmark). Available: "
    ^ String.concat ", " (Sdiq_workloads.Suite.names ())
  in
  Arg.(value & opt (some string) None & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let mode_arg =
  let doc =
    "Annotation mode to audit: noop, extension, improved, tightened or all."
  in
  Arg.(value & opt string "all" & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let dot_arg =
  let doc =
    "Directory to dump Graphviz views into: one CFG per procedure and one \
     DDG per loop region (via Sdiq_ddg.Dot)."
  in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DIR" ~doc)

let quiet_arg =
  let doc = "Print only per-benchmark summaries and waived findings." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let trace_arg =
  let doc =
    "Audit a JSONL event trace (written by `simulate.exe --trace`) for \
     delivery integrity against the statically prepared binary: every \
     traced annotation delivery must name a real annotation site with \
     the emitted value, commits must retire in program order, and the \
     cycle structure must be well-formed. Requires --bench and a single \
     --mode."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let infos_arg =
  let doc = "Also print info-severity findings (proved facts, statistics)." in
  Arg.(value & flag & info [ "infos" ] ~doc)

let waivers_arg =
  let doc =
    "Waiver file suppressing acknowledged error/warning findings. Each \
     line is '<pass> <proc|*> <addr|*> <reason...>' ('#' starts a \
     comment); [pass] is the finding's pass exactly as printed (e.g. \
     improved/soundness). Waivers that match no finding are reported \
     as stale and keep the exit status non-zero."
  in
  Arg.(value & opt (some string) None & info [ "waivers" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc =
    "Write the findings that survive the waivers (all severities) as a \
     JSON array to $(docv); each object carries the benchmark it was \
     found under, and the pass field carries the mode prefix."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* Usage errors exit 64: exit 1 would read as "warnings only". *)
let cli = Cli.tool ~usage_status:64 "lint"

let dump_dot dir (bench : Sdiq_workloads.Bench.t) =
  let prog = bench.Sdiq_workloads.Bench.prog in
  List.iter
    (fun (p : Sdiq_isa.Prog.proc) ->
      if (not p.Sdiq_isa.Prog.is_library) && p.Sdiq_isa.Prog.len > 0 then begin
        let cfg = Sdiq_cfg.Cfg.build prog p in
        let write name contents =
          let oc =
            open_out
              (Filename.concat dir
                 (Fmt.str "%s_%s_%s.dot" bench.Sdiq_workloads.Bench.name
                    p.Sdiq_isa.Prog.name name))
          in
          output_string oc contents;
          close_out oc
        in
        write "cfg" (Sdiq_ddg.Dot.cfg_to_dot cfg);
        let regions = Sdiq_cfg.Regions.decompose cfg in
        List.iteri
          (fun i region ->
            match region with
            | Sdiq_cfg.Regions.Loop _ ->
              let body =
                Sdiq_core.Loop_need.body_of_region cfg regions region
              in
              let g = Sdiq_ddg.Ddg.of_loop_body body in
              write (Fmt.str "loop%d_ddg" i) (Sdiq_ddg.Dot.ddg_to_dot g)
            | Sdiq_cfg.Regions.Dag _ -> ())
          regions.Sdiq_cfg.Regions.regions
      end)
    prog.Sdiq_isa.Prog.procs

(* --- runtime-trace delivery integrity ----------------------------------- *)

(* Apply [f] to each line of [path] with its 1-based number; returns the
   number of lines. *)
let iter_lines flag path f =
  match open_in path with
  | exception Sys_error e -> Cli.fail cli "--%s: %s" flag e
  | ic ->
    let rec go n =
      match input_line ic with
      | line ->
        f n line;
        go (n + 1)
      | exception End_of_file ->
        close_in ic;
        n - 1
      | exception Sys_error e ->
        close_in_noerr ic;
        Cli.fail cli "--%s: %s: %s" flag path e
    in
    go 1

module Json = Sdiq_util.Json

let int_field ev key = Option.bind (Json.member key ev) Json.to_int
let str_field ev key = Option.bind (Json.member key ev) Json.to_str

(* Audit [path] against [mode]'s binary, made by the call the simulator
   harness makes (Technique.prepare is [Driver.apply_mode] on the
   technique's recipe). Returns the number of errors. *)
let audit_trace ~(bench : Sdiq_workloads.Bench.t) ~(mode : Driver.mode) path =
  let prepared, _anns =
    Driver.apply_mode mode bench.Sdiq_workloads.Bench.prog
  in
  let errors = ref 0 in
  let error fmt =
    Fmt.kstr
      (fun msg ->
        incr errors;
        if !errors <= 20 then Fmt.pr "  error: %s@." msg)
      fmt
  in
  let prev_cycle = ref 0 in
  let prev_commit_sn = ref (-1) in
  let commits = ref 0 in
  let annotations = ref 0 in
  let cycle_ends = ref 0 in
  let events =
    iter_lines "trace" path (fun n line ->
      let j = match Json.parse line with Ok j -> j | Error _ -> Json.Null in
      match (str_field j "ev", int_field j "cycle") with
      | None, _ | _, None ->
        error "line %d: malformed event (no ev/cycle field): %s" n line
      | Some ev, Some cycle ->
        if cycle < !prev_cycle then
          error "line %d: cycle went backwards (%d after %d)" n cycle
            !prev_cycle;
        prev_cycle := cycle;
        (match ev with
        | "annotation" -> (
          incr annotations;
          match
            ( int_field j "pc",
              int_field j "value",
              str_field j "delivery" )
          with
          | Some pc, Some value, Some delivery ->
            if pc < 0 || pc >= Sdiq_isa.Prog.length prepared then
              error "line %d: annotation pc %d outside the binary" n pc
            else begin
              let i = Sdiq_isa.Prog.instr prepared pc in
              match delivery with
              | "noop" ->
                if i.Sdiq_isa.Instr.op <> Sdiq_isa.Opcode.Iqset then
                  error
                    "line %d: NOOP delivery at pc %d but the binary has %s \
                     there"
                    n pc
                    (Sdiq_isa.Instr.to_string i)
                else if i.Sdiq_isa.Instr.imm <> value then
                  error
                    "line %d: NOOP delivery at pc %d carries %d, binary \
                     says %d"
                    n pc value i.Sdiq_isa.Instr.imm
              | "tag" ->
                if i.Sdiq_isa.Instr.tag <> Some value then
                  error
                    "line %d: tag delivery at pc %d carries %d, binary \
                     says %s"
                    n pc value
                    (match i.Sdiq_isa.Instr.tag with
                    | Some v -> string_of_int v
                    | None -> "no tag")
              | d -> error "line %d: unknown delivery kind %S" n d
            end
          | _ -> error "line %d: annotation event missing fields" n)
        | "commit" -> (
          incr commits;
          match int_field j "sn" with
          | Some sn ->
            if sn <= !prev_commit_sn then
              error "line %d: commit sn %d not after %d (program order)"
                n sn !prev_commit_sn;
            prev_commit_sn := sn
          | None -> error "line %d: commit event missing sn" n)
        | "cycle_end" ->
          if cycle <> !cycle_ends then
            error "line %d: cycle_end for cycle %d, expected %d" n cycle
              !cycle_ends;
          incr cycle_ends
        | _ -> ()))
  in
  if !commits = 0 then error "trace retired no instructions";
  let binary_annotated =
    Sdiq_isa.Prog.count_matching prepared (fun i ->
        i.Sdiq_isa.Instr.op = Sdiq_isa.Opcode.Iqset
        || i.Sdiq_isa.Instr.tag <> None)
    > 0
  in
  if binary_annotated && !annotations = 0 then
    error
      "binary carries annotations under mode %s but the trace delivered none"
      mode.Driver.name;
  Fmt.pr
    "== %s/%s trace: %d events over %d cycles — %d commits in order, %d \
     annotation deliveries verified: %s@."
    bench.Sdiq_workloads.Bench.name mode.Driver.name events !cycle_ends
    !commits !annotations
    (if !errors = 0 then "clean" else Fmt.str "%d error(s)" !errors);
  !errors

let run bench_name mode dot quiet infos trace waivers_file json_file =
  (match trace with
  | None -> ()
  | Some path ->
    (* A trace audit reads no waivers, writes no findings and prints no
       infos: those flags would be dropped silently, so they are a usage
       error. *)
    let dropped =
      List.filter_map
        (fun (flag, given) -> if given then Some flag else None)
        [
          ("--json", json_file <> None);
          ("--dot", dot <> None);
          ("--waivers", waivers_file <> None);
          ("--infos", infos);
        ]
    in
    if dropped <> [] then
      Cli.fail cli "--trace audits the trace alone and takes no %s"
        (String.concat ", " dropped);
    (* Trace audits pin down one (bench, mode): anything else would
       compare the trace against the wrong binary. *)
    let bench =
      match bench_name with
      | Some n -> Cli.bench cli n
      | None ->
        Cli.fail cli "--trace needs --bench NAME (the trace's benchmark)"
    in
    let m =
      match Driver.mode_named mode with
      | Some m -> m
      | None ->
        Cli.fail cli
          "--trace needs a single --mode (noop, extension, improved or \
           tightened)"
    in
    exit (if audit_trace ~bench ~mode:m path > 0 then 2 else 0));
  let json_out = Cli.output cli "json" json_file in
  let dot = Cli.dir cli "dot" dot in
  let benches =
    match bench_name with
    | None -> Sdiq_workloads.Suite.all ()
    | Some n -> [ Cli.bench cli n ]
  in
  let modes =
    if mode = "all" then Driver.modes
    else
      match Driver.mode_named mode with
      | Some m -> [ m ]
      | None ->
        Cli.fail cli
          "unknown mode %S; available: noop, extension, improved, tightened, \
           all"
          mode
  in
  let waivers =
    match waivers_file with
    | None -> []
    | Some path -> (
      match Waiver.load path with
      | Ok ws -> ws
      | Error e -> Cli.fail cli "--waivers: %s" e)
  in
  (* Waiver usage is tracked across every bench/mode so a waiver that
     fires anywhere in the run is not reported stale. *)
  let used = Array.make (List.length waivers) false in
  let waiver_for f =
    let rec go i = function
      | [] -> None
      | w :: ws -> if Waiver.matches w f then Some (i, w) else go (i + 1) ws
    in
    go 0 waivers
  in
  let total_errors = ref 0 in
  let total_warnings = ref 0 in
  let json_entries = ref [] in
  List.iter
    (fun (bench : Sdiq_workloads.Bench.t) ->
      let name = bench.Sdiq_workloads.Bench.name in
      let prog = bench.Sdiq_workloads.Bench.prog in
      let findings =
        List.concat_map (fun m -> Driver.audit_mode m prog) modes
        @ Driver.lint_program prog
        |> List.sort Finding.compare
      in
      let waived, active =
        List.partition_map
          (fun (f : Finding.t) ->
            match f.Finding.severity with
            | Finding.Info -> Either.Right f
            | Finding.Error | Finding.Warning -> (
              match waiver_for f with
              | Some (i, w) ->
                used.(i) <- true;
                Either.Left (f, w.Waiver.reason)
              | None -> Either.Right f))
          findings
      in
      total_errors := !total_errors + Finding.errors active;
      total_warnings := !total_warnings + Finding.warnings active;
      json_entries :=
        List.rev_append
          (List.rev_map
             (fun f -> Finding.to_json ~extra:[ ("bench", name) ] f)
             active)
          !json_entries;
      Fmt.pr "== %s: %a (%d waived)@." name Finding.pp_summary active
        (List.length waived);
      List.iter
        (fun (f : Finding.t) ->
          let show =
            match f.Finding.severity with
            | Finding.Error -> true
            | Finding.Warning -> not quiet
            | Finding.Info -> infos && not quiet
          in
          if show then Fmt.pr "  %a@." Finding.pp f)
        active;
      List.iter
        (fun ((f : Finding.t), reason) ->
          Fmt.pr "  waived: %a@.    reason: %s@." Finding.pp f reason)
        waived;
      Option.iter (fun dir -> dump_dot dir bench) dot)
    benches;
  (match json_out with
  | None -> ()
  | Some (path, oc) ->
    let entries = List.rev !json_entries in
    output_string oc "[";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",";
        output_string oc "\n";
        output_string oc s)
      entries;
    output_string oc "\n]\n";
    close_out oc;
    Fmt.pr "lint: wrote %d finding(s) to %s@." (List.length entries) path);
  let unused = List.filteri (fun i _ -> not used.(i)) waivers in
  List.iter
    (fun (w : Waiver.t) ->
      Fmt.pr "lint: stale waiver (line %d: %s %s %s) matched nothing: %s@."
        w.Waiver.line w.Waiver.pass
        (match w.Waiver.proc with Some p -> p | None -> "*")
        (match w.Waiver.addr with Some a -> string_of_int a | None -> "*")
        w.Waiver.reason)
    unused;
  if !total_errors > 0 then begin
    Fmt.pr "lint: %d error-severity finding(s)@." !total_errors;
    exit 2
  end
  else if !total_warnings > 0 || unused <> [] then begin
    Fmt.pr "lint: %d warning(s), %d stale waiver(s)@." !total_warnings
      (List.length unused);
    exit 1
  end
  else Fmt.pr "lint: clean (no error-severity findings)@."

let () =
  let doc =
    "statically audit annotation soundness, delivery integrity, workload \
     hygiene and register pressure"
  in
  Cli.eval cli ~doc
    Term.(
      const run $ bench_arg $ mode_arg $ dot_arg $ quiet_arg $ infos_arg
      $ trace_arg $ waivers_arg $ json_arg)
