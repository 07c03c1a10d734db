(* compare.exe: judge a change against its parent from two sets of
   perf.exe result files.

     compare.exe [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...

   Each file is one `perf.exe run --json` output. A workload's runs on
   each side are paired in the order given; alternate which side of a
   pair runs first. For every workload and every end-to-end metric of
   BENCHMARK.json it prints improved, unchanged, regressed or unresolved
   (see verdict.mli), and it flags any sim_digest difference and any
   rise in failed operations. Exit 1 on any of those three, 2 on a usage
   error. *)

module Json = Sdiq_util.Json
module Summary = Sdiq_perf.Summary
module Verdict = Sdiq_perf.Verdict

exception Bad_input of string

let str key j = Option.bind (Json.member key j) Json.to_str
let num key j = Option.bind (Json.member key j) Json.to_float

let parse_file file =
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error e -> raise (Bad_input (file ^ ": " ^ e))
  | exception Sys_error e -> raise (Bad_input e)

let runs_of file =
  match Option.bind (Json.member "runs" (parse_file file)) Json.to_list with
  | Some runs -> runs
  | None -> raise (Bad_input (file ^ ": no \"runs\" array"))

type bound = {
  name : string;
  unit : string;
  better : Verdict.better;
  bound : float;
}

let bounds_of file =
  let entry e =
    match (str "name" e, str "unit" e, Option.bind (str "better" e) Verdict.better_of_string, num "bound" e) with
    | Some name, Some unit, Some better, Some bound -> { name; unit; better; bound }
    | _ -> raise (Bad_input (file ^ ": malformed end_to_end entry"))
  in
  match Option.bind (Json.member "end_to_end" (parse_file file)) Json.to_list with
  | Some es -> List.map entry es
  | None -> raise (Bad_input (file ^ ": no end_to_end list"))

let median name run =
  Option.bind (Option.bind (Json.member "end_to_end" run) (Json.member name)) (num "median")

let workload run = Option.value ~default:"?" (str "workload" run)

let compare_workload bounds w ~parent ~change =
  let bad = ref false in
  let pairs = min (List.length parent) (List.length change) in
  Printf.printf "== %s: %d parent runs, %d change runs\n" w (List.length parent)
    (List.length change);
  if pairs < Verdict.min_pairs then
    Printf.printf "   fewer than %d pairs: no verdict can be better than unresolved\n"
      Verdict.min_pairs;
  let digests runs = List.sort_uniq compare (List.filter_map (str "sim_digest") runs) in
  if digests parent <> digests change then begin
    bad := true;
    Printf.printf "   sim_digest differs: parent [%s], change [%s]\n"
      (String.concat " " (digests parent)) (String.concat " " (digests change))
  end;
  let failed runs =
    List.fold_left (fun acc r -> acc +. Option.value ~default:0. (num "failed" r)) 0. runs
  in
  if failed change > failed parent then begin
    bad := true;
    Printf.printf "   failed operations rose: parent %.0f, change %.0f\n" (failed parent)
      (failed change)
  end;
  List.iter
    (fun b ->
      let values runs = Array.of_list (List.filter_map (median b.name) runs) in
      let pv = values parent and cv = values change in
      if pv = [||] || cv = [||] then Printf.printf "   %-12s missing\n" b.name
      else begin
        let v = Verdict.decide ~better:b.better ~bound:b.bound ~parent:pv ~change:cv in
        if v = Verdict.Regressed then bad := true;
        let p = Summary.of_array pv and c = Summary.of_array cv in
        Printf.printf
          "   %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s  %+.1f%% (bound %.0f%%)  %s\n"
          b.name p.Summary.median p.Summary.q1 p.Summary.q3 c.Summary.median c.Summary.q1
          c.Summary.q3 b.unit
          (100. *. ((c.Summary.median /. p.Summary.median) -. 1.))
          (100. *. b.bound) (Verdict.name v)
      end)
    bounds;
  !bad

let () =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> raise (Bad_input "missing -- between parent and change files")
  in
  try
    let args = List.tl (Array.to_list Sys.argv) in
    let bench, args =
      match args with
      | "--benchmark" :: f :: rest -> (f, rest)
      | _ -> ("BENCHMARK.json", args)
    in
    let pfiles, cfiles = split [] args in
    if pfiles = [] || cfiles = [] then raise (Bad_input "need files on both sides of --");
    let bounds = bounds_of bench in
    let parent = List.concat_map runs_of pfiles
    and change = List.concat_map runs_of cfiles in
    let names = List.sort_uniq compare (List.map workload (parent @ change)) in
    let bad =
      List.fold_left
        (fun bad w ->
          let on side = List.filter (fun r -> workload r = w) side in
          match (on parent, on change) with
          | [], _ | _, [] ->
            Printf.printf "== %s: runs on one side only\n" w;
            true
          | p, c -> compare_workload bounds w ~parent:p ~change:c || bad)
        false names
    in
    exit (if bad then 1 else 0)
  with Bad_input msg ->
    Printf.eprintf
      "compare.exe: %s\nusage: compare.exe [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...\n"
      msg;
    exit 2
