(* Rendering of drained span collections: Chrome trace-event JSON for
   Perfetto, and a host-level metric registry for the OpenMetrics
   exposition. The collection itself lives in Sdiq_util.Spanlog so the
   pool (which sits below lib/obs) can record without a cycle. *)

module Span = Sdiq_util.Spanlog
module Json = Sdiq_util.Json

let start = Span.start
let active = Span.active
let drain = Span.drain

(* Chrome trace format: "ts"/"dur" in microseconds (floats), one
   complete event (ph "X") per span, the domain id as the tid, span
   id/parent threaded through "args" so tooling can rebuild the tree.
   Events are emitted in the drained (domain, seq) order, so the
   document is deterministic given the spans. *)
let to_chrome_json (r : Span.result) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let us_of ns = Int64.to_float (Int64.sub ns r.Span.origin_ns) /. 1e3 in
  let first = ref true in
  List.iter
    (fun (s : Span.span) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"name":"%s","cat":"sdiq","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d%s}}|}
           (Json.escape s.Span.name) (us_of s.Span.start_ns)
           (Int64.to_float (Int64.sub s.Span.stop_ns s.Span.start_ns) /. 1e3)
           s.Span.domain s.Span.id s.Span.parent
           (String.concat ""
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf {|,"%s":"%s"|} (Json.escape k)
                     (Json.escape v))
                 s.Span.attrs))))
    r.Span.spans;
  (* Drained counters ride along as one final counter event so the
     numbers (memo hits, steals) are visible in the trace viewer too. *)
  List.iter
    (fun (k, v) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"name":"%s","cat":"sdiq","ph":"C","ts":0,"pid":1,"args":{"value":%d}}|}
           (Json.escape k) v))
    r.Span.counters;
  Buffer.add_string b "]}";
  Buffer.contents b

let output_chrome oc r =
  output_string oc (to_chrome_json r);
  output_char oc '\n'

let write_chrome file r =
  let oc = open_out file in
  output_chrome oc r;
  close_out oc

let seconds_of_span (s : Span.span) =
  Int64.to_float (Int64.sub s.Span.stop_ns s.Span.start_ns) /. 1e9

let to_metrics ?pairs ?wall_s (r : Span.result) =
  let m = Metrics.create () in
  (* Every drained counter, prefixed so scrapes can't collide with the
     simulation-side registries. *)
  List.iter
    (fun (k, v) -> Metrics.incr ~by:v m ("telemetry_" ^ k))
    r.Span.counters;
  (* Per span name: occurrence count and accumulated seconds. *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.span) ->
      let c, t =
        Option.value
          (Hashtbl.find_opt by_name s.Span.name)
          ~default:(0, 0.)
      in
      Hashtbl.replace by_name s.Span.name (c + 1, t +. seconds_of_span s))
    r.Span.spans;
  Hashtbl.iter
    (fun name (c, t) ->
      Metrics.incr ~by:c m ("span_" ^ name);
      Metrics.set_gauge m ("span_" ^ name ^ "_seconds") t)
    by_name;
  (* Memo hit ratio over whatever memo traffic the collection saw. *)
  let hit = List.assoc_opt "memo.hit" r.Span.counters
  and miss = List.assoc_opt "memo.miss" r.Span.counters in
  (match (hit, miss) with
  | None, None -> ()
  | h, ms ->
    let h = Option.value h ~default:0 and ms = Option.value ms ~default:0 in
    if h + ms > 0 then
      Metrics.set_gauge m "memo_hit_ratio"
        (float_of_int h /. float_of_int (h + ms)));
  (* Per-domain busy fraction: task seconds over worker seconds, one
     gauge per domain that ran pool work. *)
  let busy = Hashtbl.create 8 and total = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.span) ->
      let add tbl =
        let d = s.Span.domain in
        Hashtbl.replace tbl d
          (Option.value (Hashtbl.find_opt tbl d) ~default:0.
          +. seconds_of_span s)
      in
      if s.Span.name = "pool.task" then add busy
      else if s.Span.name = "pool.worker" then add total)
    r.Span.spans;
  Hashtbl.iter
    (fun d t ->
      if t > 0. then
        Metrics.set_gauge m
          (Printf.sprintf "domain%d_busy_fraction" d)
          (Option.value (Hashtbl.find_opt busy d) ~default:0. /. t))
    total;
  (match pairs with
  | Some p ->
    Metrics.incr ~by:p m "campaign_pairs";
    (match wall_s with
    | Some w when w > 0. ->
      Metrics.set_gauge m "campaign_pairs_per_sec" (float_of_int p /. w)
    | _ -> ())
  | None -> ());
  (match wall_s with
  | Some w -> Metrics.set_gauge m "campaign_wall_seconds" w
  | None -> ());
  m
