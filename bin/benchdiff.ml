(* sdiq-benchdiff: the regression gate over the run ledger.

   Loads telemetry/ledger.jsonl (or --ledger FILE), validates every
   record against the schema, and compares the newest record to its
   most recent predecessor of the same kind and config/policy digest:
   any drift in an energy total exits non-zero. Host speed is gated by
   `make perf-gate` instead (bench/perf, parent against change on one
   host).

     dune exec bin/benchdiff.exe -- --check-schema
     dune exec bin/benchdiff.exe -- --ledger _build/telemetry/ledger.jsonl *)

open Cmdliner
module Ledger = Sdiq_obs.Ledger

let cli = Cli.tool "benchdiff"

let ledger_arg =
  let doc = "Ledger file (JSONL, one record per run)." in
  Arg.(
    value
    & opt string "telemetry/ledger.jsonl"
    & info [ "ledger" ] ~docv:"FILE" ~doc)

let check_schema_arg =
  let doc =
    "Only validate that every ledger line parses as a schema-1 record; \
     skip the regression comparison."
  in
  Arg.(value & flag & info [ "check-schema" ] ~doc)

let run ledger check_schema =
  match Ledger.load ~file:ledger with
  | Error msg ->
    Fmt.epr "benchdiff: %s@." msg;
    exit 1
  | Ok records ->
    Fmt.pr "benchdiff: %s: %d record(s), schema ok@." ledger
      (List.length records);
    if check_schema then exit 0;
    let v = Ledger.gate records in
    List.iter (fun m -> Fmt.pr "benchdiff: %s@." m) v.Ledger.messages;
    exit (if v.Ledger.ok then 0 else 1)

let () =
  let doc = "regression gate over the telemetry run ledger" in
  Cli.eval cli ~doc Term.(const run $ ledger_arg $ check_schema_arg)
