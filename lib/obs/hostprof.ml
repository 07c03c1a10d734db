module Event = Sdiq_events.Event

let stage_names =
  [| "fetch"; "dispatch"; "issue"; "writeback"; "commit"; "accounting" |]

let stage_of_event = function
  | Event.Fetch _ | Event.Cache_miss _ | Event.Tlb_miss _ -> 0
  | Event.Annotation _ | Event.Dispatch _ | Event.Dispatch_stall _ -> 1
  | Event.Wakeup _ | Event.Select _ | Event.Select_scan _ | Event.Issue _
  | Event.Rf_read _ -> 2
  | Event.Writeback _ | Event.Rf_write _ -> 3
  | Event.Commit _ | Event.Squash _ -> 4
  | Event.Resize _ | Event.Bank_gated _ | Event.Bank_ungated _
  | Event.Cycle_end _ -> 5

type t = {
  sample : int;
  stage_s : float array;
  initial : Gc.stat;
  mutable sampled : Gc.stat;
  mutable last : float;
  mutable events : int;
  mutable cycles : int;
}

let create ?(sample = 1000) () =
  if sample <= 0 then invalid_arg "Hostprof.create: sample must be positive";
  let g = Gc.quick_stat () in
  {
    sample;
    stage_s = Array.make (Array.length stage_names) 0.;
    initial = g;
    sampled = g;
    last = Unix.gettimeofday ();
    events = 0;
    cycles = 0;
  }

let sink t ev =
  let now = Unix.gettimeofday () in
  let stage = stage_of_event ev in
  t.stage_s.(stage) <- t.stage_s.(stage) +. (now -. t.last);
  t.last <- now;
  t.events <- t.events + 1;
  match ev with
  | Event.Cycle_end _ ->
    t.cycles <- t.cycles + 1;
    if t.cycles mod t.sample = 0 then t.sampled <- Gc.quick_stat ()
  | _ -> ()

let attach ?sample p =
  let t = create ?sample () in
  Sdiq_cpu.Pipeline.subscribe ~name:"hostprof" p (sink t);
  t

let events t = t.events
let cycles t = t.cycles

let stage_seconds t =
  Array.to_list (Array.mapi (fun i name -> (name, t.stage_s.(i))) stage_names)

(* Gc deltas since creation, as of the last sample point, plus
   [top_heap_words]: a level (the largest major heap so far), not a
   delta. *)
let gc_report t =
  [
    ("minor_words", t.sampled.Gc.minor_words -. t.initial.Gc.minor_words);
    ("major_words", t.sampled.Gc.major_words -. t.initial.Gc.major_words);
    ("promoted_words", t.sampled.Gc.promoted_words -. t.initial.Gc.promoted_words);
    ( "minor_collections",
      float_of_int (t.sampled.Gc.minor_collections - t.initial.Gc.minor_collections) );
    ( "major_collections",
      float_of_int (t.sampled.Gc.major_collections - t.initial.Gc.major_collections) );
    ( "forced_major_collections",
      float_of_int
        (t.sampled.Gc.forced_major_collections
        - t.initial.Gc.forced_major_collections) );
    (* A level, not a delta: the largest major heap the run has needed
       so far (as of the last sample point). *)
    ("top_heap_words", float_of_int t.sampled.Gc.top_heap_words);
  ]

let to_json t =
  Printf.sprintf
    {|{"events":%d,"cycles":%d,"stages":{%s},"gc":{%s}}|}
    t.events t.cycles
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf {|"%s":%.9f|} k v)
          (stage_seconds t)))
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf {|"%s":%.1f|} k v)
          (gc_report t)))

(* The host profile as a metrics registry for the OpenMetrics
   exposition path: integer flows (events, cycles, collection counts)
   as counters, levels and wall-clock charges as gauges. *)
let to_metrics t =
  let m = Metrics.create () in
  Metrics.incr ~by:t.events m "host_events";
  Metrics.incr ~by:t.cycles m "host_cycles";
  List.iter
    (fun (k, v) -> Metrics.set_gauge m ("host_stage_seconds_" ^ k) v)
    (stage_seconds t);
  List.iter
    (fun (k, v) ->
      match k with
      | "minor_collections" | "major_collections"
      | "forced_major_collections" ->
        Metrics.incr ~by:(int_of_float v) m ("host_gc_" ^ k)
      | _ -> Metrics.set_gauge m ("host_gc_" ^ k) v)
    (gc_report t);
  m

let pp ppf t =
  Fmt.pf ppf "@[<v>hostprof: %d events over %d cycles" t.events t.cycles;
  List.iter
    (fun (k, v) ->
      Fmt.cut ppf ();
      Fmt.pf ppf "  %-12s %8.3f ms" k (1000. *. v))
    (stage_seconds t);
  List.iter
    (fun (k, v) ->
      Fmt.cut ppf ();
      Fmt.pf ppf "  gc %-15s %12.0f" k v)
    (gc_report t);
  Fmt.pf ppf "@]"
