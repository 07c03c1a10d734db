module Json = Sdiq_util.Json

type record = {
  schema : int;
  time : string;
  git : string;
  kind : string;
  digest : string;
  domains : int;
  pairs : int;
  wall_s : float;
  energy : (string * float) list;
}

let schema_version = 1

let config_digest ?(extra = "") config sched =
  Digest.to_hex
    (Digest.string
       (Fmt.str "%a|%s|%s" Sdiq_cpu.Config.pp config
          (Sdiq_cpu.Sched.key sched) extra))

let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, line) with
    | Unix.WEXITED 0, s when s <> "" -> s
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make ?time ?git ?digest ?(domains = 1) ?(pairs = 0) ?(wall_s = 0.)
    ?(energy = []) ~kind () =
  {
    schema = schema_version;
    time = (match time with Some t -> t | None -> iso8601_now ());
    git = (match git with Some g -> g | None -> git_describe ());
    digest =
      (match digest with
      | Some d -> d
      | None -> config_digest Sdiq_cpu.Config.default Sdiq_cpu.Sched.default);
    kind;
    domains;
    pairs;
    wall_s;
    energy = List.sort (fun (a, _) (b, _) -> String.compare a b) energy;
  }

let to_json r =
  Printf.sprintf
    "{\"schema\":%d,\"time\":\"%s\",\"git\":\"%s\",\"kind\":\"%s\",\"digest\":\"%s\",\"domains\":%d,\"pairs\":%d,\"wall_s\":%s,\"energy\":{%s}}"
    r.schema (Json.escape r.time) (Json.escape r.git) (Json.escape r.kind)
    (Json.escape r.digest) r.domains r.pairs
    (Json.to_string (Json.Num r.wall_s))
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\":%s" (Json.escape k)
              (Json.to_string (Json.Num v)))
          r.energy))

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "ledger record: missing or bad %S" name)
  in
  let* schema = field "schema" Json.to_int in
  if schema <> schema_version then
    Error (Printf.sprintf "ledger record: unknown schema %d" schema)
  else
    let* time = field "time" Json.to_str in
    let* git = field "git" Json.to_str in
    let* kind = field "kind" Json.to_str in
    let* digest = field "digest" Json.to_str in
    let* domains = field "domains" Json.to_int in
    let* pairs = field "pairs" Json.to_int in
    let* wall_s = field "wall_s" Json.to_float in
    let* energy =
      match Json.member "energy" j with
      | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_float v with
            | Some f -> Ok ((k, f) :: acc)
            | None ->
              Error (Printf.sprintf "ledger record: bad energy for %S" k))
          (Ok []) kvs
        |> Result.map List.rev
      | Some _ -> Error "ledger record: energy is not an object"
      | None -> Ok []
    in
    Ok { schema; time; git; kind; digest; domains; pairs; wall_s; energy }

let output oc r =
  output_string oc (to_json r);
  output_char oc '\n'

let load ~file =
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no such ledger" file)
  else
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error e ->
      Error (Printf.sprintf "%s: unreadable ledger: %s" file e)
    | text ->
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | "" :: lines -> go (n + 1) acc lines
        | line :: lines -> (
          match Json.parse line with
          | Error e -> Error (Printf.sprintf "%s:%d: bad JSON: %s" file n e)
          | Ok j -> (
            match of_json j with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" file n e)
            | Ok r -> go (n + 1) (r :: acc) lines))
      in
      go 1 [] (String.split_on_char '\n' text)

type verdict = { ok : bool; messages : string list }

let pass messages = { ok = true; messages }
let fail messages = { ok = false; messages }

(* The newest record's baseline: the most recent earlier record with the
   same kind and config/policy digest. Cross-digest comparisons would
   flag configuration changes as regressions, so they are skipped. *)
let baseline_of records newest =
  let rec last_match acc = function
    | [] -> acc
    | r :: rest ->
      if r == newest then acc
      else if r.kind = newest.kind && r.digest = newest.digest then
        last_match (Some r) rest
      else last_match acc rest
  in
  last_match None records

(* Symmetric over the two technique sets: a technique that appears,
   disappears or is renamed between records is a drift just as much as
   a changed value — the gate must not pass it silently. *)
let check_energy ~baseline ~current =
  let keys =
    List.sort_uniq String.compare
      (List.map fst baseline @ List.map fst current)
  in
  List.filter_map
    (fun tech ->
      match (List.assoc_opt tech baseline, List.assoc_opt tech current) with
      | Some b, Some c when c <> b ->
        Some
          (Printf.sprintf "FAIL energy drift for %s: %.6g -> %.6g" tech b c)
      | Some b, None ->
        Some
          (Printf.sprintf
             "FAIL energy for %s vanished (baseline %.6g, no current total)"
             tech b)
      | None, Some c ->
        Some
          (Printf.sprintf
             "FAIL energy for %s appeared (%.6g, no baseline total)" tech c)
      | _ -> None)
    keys

let gate records =
  match List.rev records with
  | [] -> pass [ "ok   empty ledger (nothing to gate)" ]
  | newest :: _ -> (
    match baseline_of records newest with
    | None ->
      pass
        [ Printf.sprintf "ok   no prior %S record with digest %s (seeding)"
            newest.kind
            (String.sub newest.digest 0 (min 8 (String.length newest.digest)));
        ]
    | Some prior -> (
      match check_energy ~baseline:prior.energy ~current:newest.energy with
      | [] when prior.energy = [] -> pass [ "ok   nothing comparable" ]
      | [] ->
        pass
          [ Printf.sprintf "ok   energy totals match (%d techniques)"
              (List.length newest.energy);
          ]
      | msgs -> fail msgs))
