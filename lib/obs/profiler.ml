open Sdiq_cpu
module Event = Sdiq_events.Event
module Exec = Sdiq_isa.Exec
module Params = Sdiq_power.Params
module Iq_power = Sdiq_power.Iq_power
module Rf_power = Sdiq_power.Rf_power
module Json = Sdiq_util.Json

type per = {
  stats : Stats.t;
  occ : Hist.t; (* cycle-end IQ occupancy while this region was current *)
  mutable peak : int;
}

type t = {
  map : Region.t;
  params : Params.t;
  regions : per array;
  metrics : Metrics.t;
  commits_series : Series.t;
  wakeups_series : Series.t;
  occ_hist : Hist.t;
  wakeup_hist : Hist.t;
  mutable cur : int;
  mutable cycle : int; (* cycle currently in flight, Trace-sink style *)
}

(* [cfg] shapes the occupancy histogram, [params] prices the per-region
   energies, [window] is the time-series bucket width in cycles. *)
let create ?(params = Params.default) ?(cfg = Config.default) ?(window = 1000)
    map =
  let occ_kind =
    Hist.Linear { width = 8; buckets = (cfg.Config.iq_size / 8) + 1 }
  in
  let metrics = Metrics.create () in
  {
    map;
    params;
    regions =
      Array.init (Region.count map) (fun _ ->
          { stats = Stats.create (); occ = Hist.create occ_kind; peak = 0 });
    metrics;
    commits_series = Metrics.series metrics "commits_per_window" ~window;
    wakeups_series = Metrics.series metrics "wakeups_gated_per_window" ~window;
    occ_hist = Metrics.hist metrics "iq_occupancy" occ_kind;
    wakeup_hist = Metrics.hist metrics "wakeup_gated" (Hist.Log2 { buckets = 16 });
    cur = 0;
    cycle = 0;
  }

(* The event sink; feed it the full stream of one run. *)
let sink t ev =
  (* A commit moves the machine into the committed pc's region; the
     commit itself is charged to the region being entered. *)
  (match ev with
  | Event.Commit { dyn } ->
    let r = Region.of_addr t.map dyn.Exec.pc in
    if r <> t.cur then begin
      t.cur <- r;
      Metrics.incr t.metrics "region_switches"
    end
  | _ -> ());
  let per = t.regions.(t.cur) in
  (match ev with
  | Event.Cycle_end
      { iq_occupancy; iq_banks_on; int_rf_banks_on; int_rf_live;
        fp_rf_banks_on; _ } ->
    (* Per-region cycles are cycles-spent-here, not the global cycle
       index, so the buckets sum to the global count. *)
    Stats.cycle_end per.stats ~cycle:per.stats.Stats.cycles ~iq_occupancy
      ~iq_banks_on ~int_rf_banks_on ~int_rf_live ~fp_rf_banks_on;
    Hist.observe per.occ iq_occupancy;
    if iq_occupancy > per.peak then per.peak <- iq_occupancy
  | _ -> Stats.absorb per.stats ev);
  Metrics.incr t.metrics "events";
  match ev with
  | Event.Commit _ ->
    Metrics.incr t.metrics "commits";
    Series.observe t.commits_series ~cycle:t.cycle 1
  | Event.Wakeup { gated; _ } ->
    Metrics.incr ~by:gated t.metrics "wakeups_gated";
    Hist.observe t.wakeup_hist gated;
    Series.observe t.wakeups_series ~cycle:t.cycle gated
  | Event.Cycle_end { cycle; iq_occupancy; _ } ->
    Metrics.incr t.metrics "cycles";
    Hist.observe t.occ_hist iq_occupancy;
    t.cycle <- cycle + 1
  | _ -> ()

let attach ?params ?window map p =
  let cfg = Pipeline.Debug.cfg p in
  let t = create ?params ~cfg ?window map in
  Pipeline.subscribe ~name:"region-profiler" p (sink t);
  t

let map t = t.map
let metrics t = t.metrics
let region_peak t i = t.regions.(i).peak

let total_stats t =
  let s = Stats.create () in
  Array.iter (fun per -> Stats.add s per.stats) t.regions;
  s

(* One region's line of the reports. *)
type row = {
  info : Region.info;
  stats : Stats.t;
  peak_occ : int;
  iq_energy : float; (* technique-priced IQ energy of this bucket *)
  scan_energy : float;
      (* the select-scan slice of [iq_energy]: slots the picker examined
         while this region was current, priced at [Params.e_scan_entry] —
         the term bounded-scan policies ([Sched.Nskip]) shrink *)
  rf_energy : float; (* gated int-RF energy of this bucket *)
  share_cycles : float; (* fraction of all cycles, 0..1 *)
  share_wakeups : float; (* fraction of gated wakeups, 0..1 *)
  share_energy : float; (* fraction of IQ+RF energy, 0..1 *)
  wp_frac : float;
      (* wrong-path fraction of this region's dispatches, 0..1: how much
         of the region's queue traffic was speculative work later
         squashed *)
}

let energy_of t (s : Stats.t) =
  let iq = Iq_power.technique t.params s in
  let rf = Rf_power.int_gated t.params s in
  ( iq.Iq_power.dynamic +. iq.Iq_power.static_,
    rf.Rf_power.dynamic +. rf.Rf_power.static_ )

let share part whole = if whole <= 0. then 0. else part /. whole

(* One row per region, id order (including inactive regions). *)
let rows t =
  let total = total_stats t in
  let tot_iq, tot_rf = energy_of t total in
  let tot_e = tot_iq +. tot_rf in
  let tot_cycles = float_of_int total.Stats.cycles in
  let tot_wakeups = float_of_int total.Stats.iq_wakeups_gated in
  Array.to_list
    (Array.mapi
       (fun i (per : per) ->
         let iq_energy, rf_energy = energy_of t per.stats in
         {
           info = Region.info t.map i;
           stats = per.stats;
           peak_occ = per.peak;
           iq_energy;
           scan_energy =
             float_of_int per.stats.Stats.iq_scan_entries
             *. t.params.Params.e_scan_entry;
           rf_energy;
           share_cycles = share (float_of_int per.stats.Stats.cycles) tot_cycles;
           share_wakeups =
             share (float_of_int per.stats.Stats.iq_wakeups_gated) tot_wakeups;
           share_energy = share (iq_energy +. rf_energy) tot_e;
           wp_frac =
             share
               (float_of_int per.stats.Stats.wp_dispatched)
               (float_of_int per.stats.Stats.dispatched);
         })
       t.regions)

type slack_entry = {
  entry_info : Region.info;
  peak : int;
  slack : int;
}

let slack t =
  let entries =
    List.filter_map
      (fun (info : Region.info) ->
        match info.Region.granted with
        | None -> None
        | Some granted ->
          let peak = t.regions.(info.Region.id).peak in
          Some { entry_info = info; peak; slack = granted - peak })
      (Array.to_list (Region.infos t.map))
  in
  List.sort
    (fun a b ->
      if a.slack <> b.slack then compare b.slack a.slack
      else compare a.entry_info.Region.id b.entry_info.Region.id)
    entries

let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let fnum v = Printf.sprintf "%.17g" v

let json_of_row r =
  obj
    [
      Printf.sprintf {|"id":%d|} r.info.Region.id;
      Printf.sprintf {|"proc":"%s"|} (Json.escape r.info.Region.proc);
      Printf.sprintf {|"kind":"%s"|} (Region.kind_name r.info.Region.kind);
      Printf.sprintf {|"start":%d|} r.info.Region.start;
      Printf.sprintf {|"orig_start":%d|} r.info.Region.orig_start;
      Printf.sprintf {|"granted":%s|}
        (match r.info.Region.granted with
        | Some g -> string_of_int g
        | None -> "null");
      Printf.sprintf {|"cycles":%d|} r.stats.Stats.cycles;
      Printf.sprintf {|"committed":%d|} r.stats.Stats.committed;
      Printf.sprintf {|"wakeups_gated":%d|} r.stats.Stats.iq_wakeups_gated;
      Printf.sprintf {|"wp_dispatched":%d|} r.stats.Stats.wp_dispatched;
      Printf.sprintf {|"squashed":%d|} r.stats.Stats.squashed;
      Printf.sprintf {|"wp_frac":%s|} (fnum r.wp_frac);
      Printf.sprintf {|"peak_occupancy":%d|} r.peak_occ;
      Printf.sprintf {|"scan_entries":%d|} r.stats.Stats.iq_scan_entries;
      Printf.sprintf {|"iq_energy":%s|} (fnum r.iq_energy);
      Printf.sprintf {|"scan_energy":%s|} (fnum r.scan_energy);
      Printf.sprintf {|"rf_energy":%s|} (fnum r.rf_energy);
      Printf.sprintf {|"share_cycles":%s|} (fnum r.share_cycles);
      Printf.sprintf {|"share_wakeups":%s|} (fnum r.share_wakeups);
      Printf.sprintf {|"share_energy":%s|} (fnum r.share_energy);
    ]

let to_json t =
  let total = total_stats t in
  let tot_iq, tot_rf = energy_of t total in
  obj
    [
      Printf.sprintf {|"delivery":"%s"|} (Region.recipe_name t.map);
      Printf.sprintf {|"regions":%s|} (arr (List.map json_of_row (rows t)));
      Printf.sprintf {|"totals":%s|}
        (obj
           (List.map
              (fun (k, v) -> Printf.sprintf {|"%s":%d|} (Json.escape k) v)
              (Stats.to_fields total)
           @ [
               Printf.sprintf {|"iq_energy":%s|} (fnum tot_iq);
               Printf.sprintf {|"rf_energy":%s|} (fnum tot_rf);
             ]));
      Printf.sprintf {|"slack":%s|}
        (arr
           (List.map
              (fun e ->
                obj
                  [
                    Printf.sprintf {|"id":%d|} e.entry_info.Region.id;
                    Printf.sprintf {|"proc":"%s"|}
                      (Json.escape e.entry_info.Region.proc);
                    Printf.sprintf {|"granted":%s|}
                      (match e.entry_info.Region.granted with
                      | Some g -> string_of_int g
                      | None -> "null");
                    Printf.sprintf {|"peak":%d|} e.peak;
                    Printf.sprintf {|"slack":%d|} e.slack;
                  ])
              (slack t)));
      Printf.sprintf {|"metrics":%s|} (Metrics.to_json t.metrics);
    ]

let csv_header =
  "id,proc,kind,start,orig_start,granted,cycles,committed,wakeups_gated,\
   wp_dispatched,squashed,peak_occupancy,scan_entries,iq_energy,scan_energy,\
   rf_energy,share_cycles,share_wakeups,share_energy,wp_frac"

let csv_rows t =
  List.map
    (fun r ->
      Printf.sprintf
        "%d,%s,%s,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,\
         %.6f"
        r.info.Region.id r.info.Region.proc
        (Region.kind_name r.info.Region.kind)
        r.info.Region.start r.info.Region.orig_start
        (match r.info.Region.granted with
        | Some g -> string_of_int g
        | None -> "")
        r.stats.Stats.cycles r.stats.Stats.committed
        r.stats.Stats.iq_wakeups_gated r.stats.Stats.wp_dispatched
        r.stats.Stats.squashed r.peak_occ r.stats.Stats.iq_scan_entries
        r.iq_energy r.scan_energy r.rf_energy
        r.share_cycles r.share_wakeups r.share_energy r.wp_frac)
    (rows t)

let pp_table ?top ppf t =
  let active =
    List.filter
      (fun r -> r.stats.Stats.cycles > 0 || r.stats.Stats.committed > 0)
      (rows t)
  in
  let ranked =
    List.sort
      (fun a b ->
        if a.share_energy <> b.share_energy then
          compare b.share_energy a.share_energy
        else compare a.info.Region.id b.info.Region.id)
      active
  in
  let shown =
    match top with
    | Some n when n >= 0 && n < List.length ranked -> List.filteri (fun i _ -> i < n) ranked
    | _ -> ranked
  in
  Fmt.pf ppf "@[<v>%-4s %-14s %-9s %7s %9s %9s %5s %6s %6s %6s %6s" "id"
    "proc" "kind" "start" "cycles" "commits" "peak" "e%" "cyc%" "wake%" "wp%";
  List.iter
    (fun r ->
      Fmt.cut ppf ();
      Fmt.pf ppf "R%-3d %-14s %-9s %7d %9d %9d %5d %6.2f %6.2f %6.2f %6.2f"
        r.info.Region.id
        (if r.info.Region.proc = "" then "-" else r.info.Region.proc)
        (Region.kind_name r.info.Region.kind)
        r.info.Region.start r.stats.Stats.cycles r.stats.Stats.committed
        r.peak_occ
        (100. *. r.share_energy)
        (100. *. r.share_cycles)
        (100. *. r.share_wakeups)
        (100. *. r.wp_frac))
    shown;
  (if List.length shown < List.length ranked then begin
     Fmt.cut ppf ();
     Fmt.pf ppf "... %d more region(s)" (List.length ranked - List.length shown)
   end);
  Fmt.pf ppf "@]"
