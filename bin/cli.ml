(* The command-line tools' shared front end: the one place that runs a
   command line, reports a usage error, opens an output flag's file,
   checks --domains, parses --policy and looks up a benchmark by name.
   The tools call it before anything simulates, so a bad invocation
   (an unknown flag or a malformed value included) prints one line
   naming the flag on stderr, nothing on stdout, and exits with the
   tool's usage status. *)

type t = { name : string; usage_status : int }

(* [usage_status] is 1 for every tool but lint, whose 1 means "warnings
   only" and whose usage errors exit 64. *)
let tool ?(usage_status = 1) name = { name; usage_status }

let say t msg = Fmt.epr "sdiq-%s: %s@." t.name msg

(* Print every message, then exit; no-op on an empty list. *)
let errors t msgs =
  if msgs <> [] then begin
    List.iter (say t) msgs;
    exit t.usage_status
  end

let fail t fmt =
  Format.kasprintf
    (fun msg ->
      say t msg;
      exit t.usage_status)
    fmt

(* cmdliner's parse-error report, on one line: the message lines before
   its "Usage:" hint, without the "sdiq-<tool>: " prefix. *)
let parse_error t report =
  let prefix = "sdiq-" ^ t.name ^ ": " in
  let strip line =
    if String.starts_with ~prefix line then
      String.sub line (String.length prefix)
        (String.length line - String.length prefix)
    else line
  in
  let rec message = function
    | line :: rest when not (String.starts_with ~prefix:"Usage:" line) ->
      String.trim (strip line) :: message rest
    | _ -> []
  in
  String.concat " " (message (String.split_on_char '\n' report))

(* Run a tool's command line: the one exit contract. A bad flag or
   argument is a usage error like any other ([fail]: one line, the
   tool's usage status); --help exits 0; an escaped exception exits
   cmdliner's internal-error status with its report. *)
let eval t ~doc term =
  let report = Buffer.create 256 in
  let err = Format.formatter_of_buffer report in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info ("sdiq-" ^ t.name) ~doc) term in
  let result = Cmdliner.Cmd.eval_value ~err cmd in
  Format.pp_print_flush err ();
  match result with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term) ->
    fail t "%s" (parse_error t (Buffer.contents report))
  | Error `Exn ->
    prerr_string (Buffer.contents report);
    exit Cmdliner.Cmd.Exit.internal_error

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())

(* Open [--flag FILE] now, so an unwritable path fails before the run.
   [~append] (the ledger) appends and creates missing parent
   directories; otherwise the file is truncated. *)
let output ?(append = false) t flag =
  Option.map (fun path ->
      try
        if append then begin
          mkdir_p (Filename.dirname path);
          ( path,
            open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path )
        end
        else (path, open_out path)
      with Sys_error e -> fail t "--%s: %s" flag e)

(* Create [--flag DIR] (and its parents) now. *)
let dir t flag =
  Option.map (fun path ->
      try
        mkdir_p path;
        if not (Sys.is_directory path) then
          fail t "--%s: %s: Not a directory" flag path;
        path
      with Sys_error e -> fail t "--%s: %s" flag e)

(* [--trace-spans FILE]: open FILE and start the span collector now; the
   returned closure drains the spans into FILE as Chrome trace-event
   JSON and reports it on stdout. *)
let trace_spans t path =
  match output t "trace-spans" path with
  | None -> ignore
  | Some (file, oc) ->
    Sdiq_obs.Telemetry.start ();
    fun () ->
      Option.iter
        (fun r ->
          Sdiq_obs.Telemetry.output_chrome oc r;
          Fmt.pr "trace-spans: %s (%d spans, %d counters)@." file
            (List.length r.Sdiq_obs.Telemetry.Span.spans)
            (List.length r.Sdiq_obs.Telemetry.Span.counters))
        (Sdiq_obs.Telemetry.drain ());
      close_out oc

let domains t d =
  Option.iter
    (fun n -> if n < 1 then fail t "--domains must be at least 1 (got %d)" n)
    d;
  d

let policy t =
  Option.map (fun s ->
      match Sdiq_cpu.Sched.of_string s with
      | Ok sched -> sched
      | Error e -> fail t "--policy: %s" e)

let bench t ?(suite = Sdiq_workloads.Suite.all) name =
  match
    List.find_opt
      (fun (b : Sdiq_workloads.Bench.t) -> b.Sdiq_workloads.Bench.name = name)
      (suite ())
  with
  | Some b -> b
  | None ->
    fail t "unknown benchmark %S; available: %s" name
      (String.concat ", " (Sdiq_workloads.Suite.names ()))
