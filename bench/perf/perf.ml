(* perf.exe: the host-performance benchmark (see README.md).

   [run] measures one workload (or all four): each rep is a fresh child
   process of this executable, one child at a time, so every rep pays
   the cold-process costs a report.exe user pays, reports its own peak
   RSS, and shares no process-global cache with another rep. With
   [--trace] one extra child replays the same operations with spans on
   and yields the per-layer metrics. The last line of standard output is
   one JSON object: {correct, attempted, failed, metrics}; the full
   result goes to [--json FILE].

   [smoke] runs every workload at a tiny size and checks the result
   against BENCHMARK.json; `dune runtest` runs it. *)

module Json = Sdiq_util.Json
module Span = Sdiq_util.Spanlog
module Summary = Sdiq_perf.Summary

let usage =
  {|usage:
  perf.exe run --workload NAME|all --seed N [--reps R | --seconds S]
               [--trace FILE] [--json FILE] [--smoke]
  perf.exe smoke BENCHMARK.json
workloads: paper-grid, policy-grid, sampled-campaign, random-programs|}

exception Usage of string

let now () = Int64.to_float (Span.now_ns ()) /. 1e9
let num f = Json.Num (if Float.is_finite f then f else 0.)
let field key j = Option.bind (Json.member key j) Json.to_float
let fnum key j = Option.value ~default:0. (field key j)
let fstr key j = Option.bind (Json.member key j) Json.to_str

(* --- child: one rep ---------------------------------------------------- *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
               float_of_int kb /. 1024.))
    |> Option.value ~default:0.

(* Standalone functional-oracle speed over the workload's programs. *)
let oracle_mips programs =
  let insns, secs =
    List.fold_left
      (fun (n, t) (prog, init) ->
        let st = Sdiq_isa.Exec.create prog in
        init st;
        let t0 = now () in
        let k = Sdiq_isa.Exec.run ~max_steps:Workloads.oracle_cap st in
        (n + k, t +. (now () -. t0)))
      (0, 0.) programs
  in
  if secs > 0. then float_of_int insns /. secs /. 1e6 else 0.

let child (w : Workloads.t) ~seed ~size ~traced ~chrome =
  let entry = now () in
  let p = w.Workloads.setup size ~seed in
  let setup_s = now () -. entry in
  if traced then Sdiq_obs.Telemetry.start ();
  let t0 = now () in
  let run = if traced then p.Workloads.traced else p.Workloads.campaign in
  let collect =
    match Span.with_span "campaign" run with
    | c -> c
    | exception e -> fun () -> raise e
  in
  let wall_s = now () -. t0 in
  let trace = if traced then Sdiq_obs.Telemetry.drain () else None in
  let base =
    [ ("setup_s", num setup_s); ("wall_s", num wall_s);
      ("build_s", num p.Workloads.build_s) ]
  in
  let result =
    match collect () with
    | exception e ->
      (* a raise loses every operation of the campaign *)
      [
        ("attempted", num (float_of_int p.Workloads.ops));
        ("failed", num (float_of_int p.Workloads.ops));
        ("failures", Json.Arr [ Json.Str ("campaign raised " ^ Printexc.to_string e) ]);
        ("digest", Json.Str "lost");
      ]
    | o ->
      let layers =
        match trace with
        | None -> []
        | Some r ->
          Option.iter (fun file -> Sdiq_obs.Telemetry.write_chrome file r) chrome;
          let ls =
            Layers.of_trace r o
            @ [ ("exec.oracle.mips", oracle_mips p.Workloads.oracle) ]
          in
          [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) ls)) ]
      in
      [
        ("attempted", num (float_of_int o.Workloads.attempted));
        ("failed", num (float_of_int (List.length o.Workloads.failures)));
        ("failures", Json.Arr (List.map (fun s -> Json.Str s) o.Workloads.failures));
        ("digest", Json.Str (Digest.to_hex (Digest.string (String.concat "\n" o.Workloads.outputs))));
        ("insns", num (float_of_int (o.Workloads.detailed.Sdiq_cpu.Stats.committed
                                     + o.Workloads.sampled_insns)));
        ("paper_gap_pp",
          match o.Workloads.paper_gap_pp with Some g -> num g | None -> Json.Null);
      ]
      @ layers
  in
  let gc = Gc.quick_stat () in
  let gc_fields =
    [
      ("minor_words", num gc.Gc.minor_words);
      ("major_collections", num (float_of_int gc.Gc.major_collections));
      ("top_heap_mb", num (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
      ("peak_rss_mb", num (peak_rss_mb ()));
    ]
  in
  print_endline (Json.to_string (Json.Obj (base @ result @ gc_fields)))

(* --- parent: reps, aggregation ------------------------------------------ *)

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "child" :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j -> Ok j
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "child exited %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Error (Printf.sprintf "child killed by signal %d" s)

type reps = Reps of int | Seconds of float

(* Below three reps a median is one run's luck. *)
let min_reps = 3

let median_of f reps = Summary.median (Array.of_list (List.map f reps))

let summary_json unit (s : Summary.t) =
  Json.Obj
    [
      ("unit", Json.Str unit); ("median", num s.Summary.median);
      ("q1", num s.Summary.q1); ("q3", num s.Summary.q3);
      ("min", num s.Summary.min); ("max", num s.Summary.max);
      ("n", num (float_of_int s.Summary.n));
    ]

let run_workload (w : Workloads.t) ~seed ~smoke ~reps ~traced ~chrome =
  let args =
    [ "--workload"; w.Workloads.name; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let start = now () in
  let rec loop acc last_s =
    let n = List.length acc in
    let more =
      match reps with
      | Reps r -> n < r
      | Seconds s -> n < min_reps || now () -. start +. last_s <= s
    in
    if not more then List.rev acc
    else begin
      let t0 = now () in
      let r = spawn args in
      loop (r :: acc) (now () -. t0)
    end
  in
  let untraced = loop [] 0. in
  let traced_rep =
    if traced then
      Some
        (spawn
           (args @ [ "--traced" ]
           @ match chrome with Some f -> [ "--chrome"; f ] | None -> []))
    else None
  in
  let children = untraced @ Option.to_list traced_rep in
  let ok = List.filter_map Result.to_option children in
  let ok_untraced = List.filter_map Result.to_option untraced in
  let lost = List.length children - List.length ok in
  let per_child = match ok with j :: _ -> fnum "attempted" j | [] -> 1. in
  let attempted =
    List.fold_left (fun acc j -> acc +. fnum "attempted" j) 0. ok
    +. (float_of_int lost *. per_child)
  in
  let digests = List.sort_uniq compare (List.filter_map (fstr "digest") ok) in
  (* Outputs that move between reps of one run are wrong in every rep. *)
  let consistent = lost = 0 && List.length digests = 1 in
  let failed =
    if consistent then List.fold_left (fun acc j -> acc +. fnum "failed" j) 0. ok
    else attempted
  in
  let e2e =
    if ok_untraced = [] then []
    else begin
      let s f = Summary.of_array (Array.of_list (List.map f ok_untraced)) in
      [
        ("setup_s", s (fnum "setup_s"));
        ("wall_s", s (fnum "wall_s"));
        ("mips", s (fun j -> fnum "insns" j /. fnum "wall_s" j /. 1e6));
        ("peak_rss_mb", s (fnum "peak_rss_mb"));
        ("failed_frac", Summary.of_array [| failed /. Float.max 1. attempted |]);
      ]
      @
      match field "paper_gap_pp" (List.hd ok_untraced) with
      | Some g -> [ ("paper_gap_pp", Summary.of_array [| g |]) ]
      | None -> []
    end
  in
  let layers =
    match (traced_rep, ok_untraced) with
    | Some (Ok t), _ :: _ -> (
      match Json.member "layers" t with
      | Some (Json.Obj ls) ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) ls
        @ [
            ("workloads.build_s", median_of (fnum "build_s") ok_untraced);
            ( "gc.minor_words_per_insn",
              median_of (fun j -> fnum "minor_words" j /. Float.max 1. (fnum "insns" j))
                ok_untraced );
            ("gc.major_collections", median_of (fnum "major_collections") ok_untraced);
            ("gc.top_heap_mb", median_of (fnum "top_heap_mb") ok_untraced);
            ( "trace.overhead_frac",
              (fnum "wall_s" t /. median_of (fnum "wall_s") ok_untraced) -. 1. );
          ]
      | _ -> [])
    | _ -> []
  in
  let unit_of name =
    match
      List.find_opt
        (fun (m : Metrics.t) -> m.Metrics.name = name)
        (Metrics.end_to_end @ Metrics.end_to_end_extra)
    with
    | Some m -> m.Metrics.unit
    | None -> ""
  in
  let failures =
    List.concat_map
      (function
        | Ok j -> (
          match Option.bind (Json.member "failures" j) Json.to_list with
          | Some l -> List.filter_map Json.to_str l
          | None -> [])
        | Error e -> [ e ])
      children
  in
  let correct = failed = 0. && attempted > 0. && ok_untraced <> [] in
  Json.Obj
    [
      ("workload", Json.Str w.Workloads.name);
      ("seed", num (float_of_int seed));
      ("smoke", Json.Bool smoke);
      ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
      ("domains", num (float_of_int Workloads.domains));
      ("reps", num (float_of_int (List.length untraced)));
      ("traced", Json.Bool (traced_rep <> None));
      ("correct", Json.Bool correct);
      ("sim_digest", Json.Str (match digests with [ d ] -> d | _ -> "inconsistent"));
      ("attempted", num attempted);
      ("failed", num failed);
      ( "end_to_end",
        Json.Obj (List.map (fun (k, s) -> (k, summary_json (unit_of k) s)) e2e) );
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
      ( "failures",
        Json.Arr (List.map (fun s -> Json.Str s) (List.filteri (fun i _ -> i < 20) failures)) );
    ]

let e2e_median name r =
  Option.bind (Json.member "end_to_end" r) (Json.member name)
  |> Fun.flip Option.bind (field "median")

let layer_value name r = Option.bind (Json.member "layers" r) (field name)

let bool_of key j = match Json.member key j with Some (Json.Bool b) -> b | _ -> false

(* The last line of standard output: end-to-end medians, or per-layer
   values for a traced run of one workload. *)
let result_line results ~traced =
  let metrics =
    match results with
    | [ r ] ->
      let pick (m : Metrics.t) value =
        Option.map
          (fun v -> (m.Metrics.name, Json.Obj [ ("value", num v); ("unit", Json.Str m.Metrics.unit) ]))
          value
      in
      if traced then
        List.filter_map (fun (m : Metrics.t) -> pick m (layer_value m.Metrics.name r)) Metrics.per_layer
      else
        List.filter_map (fun (m : Metrics.t) -> pick m (e2e_median m.Metrics.name r)) Metrics.end_to_end
    | _ -> []
  in
  let total key = List.fold_left (fun acc r -> acc +. fnum key r) 0. results in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (bool_of "correct") results));
      ("attempted", num (total "attempted"));
      ("failed", num (total "failed"));
      ("metrics", Json.Obj metrics);
    ]

let pp_result r =
  let e k = Option.value ~default:nan (e2e_median k r) in
  Printf.eprintf
    "%s seed %.0f: %.0f reps, wall_s %.3f, mips %.3f, setup_s %.4f, \
     peak_rss_mb %.1f, failed %.0f/%.0f, sim_digest %s\n%!"
    (Option.value ~default:"?" (fstr "workload" r))
    (fnum "seed" r) (fnum "reps" r) (e "wall_s") (e "mips") (e "setup_s")
    (e "peak_rss_mb") (fnum "failed" r) (fnum "attempted" r)
    (Option.value ~default:"?" (fstr "sim_digest" r))

(* --- command line -------------------------------------------------------- *)

let parse_flags ~values ~bools args =
  let rec go acc = function
    | [] -> acc
    | f :: v :: rest when List.mem f values -> go ((f, v) :: acc) rest
    | f :: rest when List.mem f bools -> go ((f, "") :: acc) rest
    | f :: _ -> raise (Usage ("unknown or incomplete flag " ^ f))
  in
  go [] args

let int_flag flags name =
  Option.map
    (fun v ->
      match int_of_string_opt v with
      | Some n -> n
      | None -> raise (Usage (Printf.sprintf "%s wants an integer, got %S" name v)))
    (List.assoc_opt name flags)

let workloads_named = function
  | "all" -> Workloads.all
  | name -> (
    match Workloads.find name with
    | Some w -> [ w ]
    | None -> raise (Usage ("unknown workload " ^ name)))

let required flags name =
  match List.assoc_opt name flags with
  | Some v -> v
  | None -> raise (Usage ("missing " ^ name))

(* With several workloads, FILE.json becomes FILE.<workload>.json. *)
let per_workload file ~several name =
  if several then Filename.remove_extension file ^ "." ^ name ^ Filename.extension file
  else file

let cmd_run args =
  let flags =
    parse_flags ~values:[ "--workload"; "--seed"; "--reps"; "--seconds"; "--trace"; "--json" ]
      ~bools:[ "--smoke" ] args
  in
  let ws = workloads_named (required flags "--workload") in
  let seed =
    match int_flag flags "--seed" with
    | Some s -> s
    | None -> raise (Usage "missing --seed")
  in
  let smoke = List.mem_assoc "--smoke" flags in
  let explicit =
    match (int_flag flags "--reps", List.assoc_opt "--seconds" flags) with
    | Some _, Some _ -> raise (Usage "--reps and --seconds are exclusive")
    | Some r, None when r >= 1 -> Some (Reps r)
    | Some _, None -> raise (Usage "--reps must be >= 1")
    | None, Some s -> (
      match float_of_string_opt s with
      | Some s when s > 0. -> Some (Seconds s)
      | _ -> raise (Usage "--seconds wants a positive number"))
    | None, None -> None
  in
  let reps (w : Workloads.t) =
    Option.value explicit
      ~default:(Reps (if smoke then 1 else w.Workloads.default_reps))
  in
  let trace = List.assoc_opt "--trace" flags in
  let several = List.length ws > 1 in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let r =
          run_workload w ~seed ~smoke ~reps:(reps w) ~traced:(trace <> None)
            ~chrome:(Option.map (fun f -> per_workload f ~several w.Workloads.name) trace)
        in
        pp_result r;
        r)
      ws
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Json.to_string (Json.Obj [ ("runs", Json.Arr results) ]));
          output_char oc '\n'))
    (List.assoc_opt "--json" flags);
  let line = result_line results ~traced:(trace <> None) in
  print_endline (Json.to_string line);
  if not (bool_of "correct" line) then exit 1

let cmd_child args =
  let flags =
    parse_flags ~values:[ "--workload"; "--seed"; "--chrome" ]
      ~bools:[ "--smoke"; "--traced" ] args
  in
  match workloads_named (required flags "--workload") with
  | [ w ] ->
    child w
      ~seed:(Option.value ~default:1 (int_flag flags "--seed"))
      ~size:(if List.mem_assoc "--smoke" flags then Workloads.Smoke else Workloads.Full)
      ~traced:(List.mem_assoc "--traced" flags)
      ~chrome:(List.assoc_opt "--chrome" flags)
  | _ -> raise (Usage "child runs one workload")

(* --- smoke: every workload, tiny, checked against BENCHMARK.json -------- *)

let cmd_smoke file =
  let bench =
    match Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok j -> j
    | Error e -> raise (Usage (file ^ ": " ^ e))
  in
  let entries key =
    Option.value ~default:[] (Option.bind (Json.member key bench) Json.to_list)
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let same_set what declared ours =
    let declared = List.sort compare declared and ours = List.sort compare ours in
    if declared <> ours then
      err "%s: BENCHMARK.json lists [%s], perf.exe reports [%s]" what
        (String.concat "; " declared) (String.concat "; " ours)
  in
  let describe (m : Metrics.t) =
    String.concat " " [ m.Metrics.name; m.Metrics.unit; Metrics.better_name m.Metrics.better ]
  in
  let declared key =
    List.map
      (fun e ->
        String.concat " "
          (List.map (fun k -> Option.value ~default:"?" (fstr k e)) [ "name"; "unit"; "better" ]))
      (entries key)
  in
  same_set "workloads"
    (List.filter_map (fstr "name") (entries "workloads"))
    (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all);
  same_set "end_to_end" (declared "end_to_end") (List.map describe Metrics.end_to_end);
  same_set "per_layer" (declared "per_layer") (List.map describe Metrics.per_layer);
  let start = now () in
  List.iter
    (fun (w : Workloads.t) ->
      let r = run_workload w ~seed:1 ~smoke:true ~reps:(Reps 1) ~traced:true ~chrome:None in
      let name = w.Workloads.name in
      if fnum "failed" r <> 0. || not (bool_of "correct" r) then begin
        pp_result r;
        err "%s: %.0f of %.0f operations failed" name (fnum "failed" r) (fnum "attempted" r)
      end;
      List.iter
        (fun (m : Metrics.t) ->
          if e2e_median m.Metrics.name r = None then err "%s: no end-to-end %s" name m.Metrics.name)
        Metrics.end_to_end;
      List.iter
        (fun (m : Metrics.t) ->
          if layer_value m.Metrics.name r = None then err "%s: no per-layer %s" name m.Metrics.name)
        Metrics.per_layer)
    Workloads.all;
  match List.rev !errors with
  | [] -> Printf.printf "smoke: ok, %d workloads in %.2fs\n" (List.length Workloads.all) (now () -. start)
  | es ->
    List.iter (fun e -> Printf.eprintf "smoke: %s\n" e) es;
    exit 1

let () =
  try
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args -> cmd_run args
    | "child" :: args -> cmd_child args
    | [ "smoke"; file ] -> cmd_smoke file
    | _ -> raise (Usage "no command")
  with Usage msg ->
    Printf.eprintf "perf.exe: %s\n%s\n" msg usage;
    exit 2
