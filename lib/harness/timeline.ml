(* Time-resolved view of a run: sample the machine every [interval] cycles
   while it executes. This is what exposes the adaptive scheme's sensing
   lag against program phases (the paper's Section 1 argument) and makes
   occupancy behaviour plottable. *)

type sample = {
  cycle : int;
  committed : int;
  iq_occupancy : int;
  iq_banks_on : int;
  iq_active_size : int;
  policy_limit : int;
  rf_live : int;
}

type t = {
  samples : sample list; (* oldest first *)
  stats : Sdiq_cpu.Stats.t;
}

let sample_of (p : Sdiq_cpu.Pipeline.t) : sample =
  {
    cycle = p.Sdiq_cpu.Pipeline.cycle;
    committed = p.Sdiq_cpu.Pipeline.stats.Sdiq_cpu.Stats.committed;
    iq_occupancy = Sdiq_cpu.Iq.occupancy p.Sdiq_cpu.Pipeline.iq;
    iq_banks_on = Sdiq_cpu.Iq.banks_on p.Sdiq_cpu.Pipeline.iq;
    iq_active_size = Sdiq_cpu.Iq.active_size p.Sdiq_cpu.Pipeline.iq;
    policy_limit =
      Sdiq_cpu.Policy.current_limit p.Sdiq_cpu.Pipeline.policy
        p.Sdiq_cpu.Pipeline.iq;
    rf_live = Sdiq_cpu.Regfile.live_count p.Sdiq_cpu.Pipeline.int_rf;
  }

(* Run [bench] under [technique] (and scheduler [sched]), sampling every
   [interval] cycles. The sampler is an ordinary per-cycle sink on the
   pipeline's event bus — it rides alongside any other observer rather
   than owning the step loop. *)
let record ?config ?sched ?(interval = 200) ?(max_insns = 50_000)
    (bench : Sdiq_workloads.Bench.t) (technique : Technique.t) : t =
  let p = Technique.build ?config ?sched technique bench in
  let samples = ref [] in
  let next = ref 0 in
  Sdiq_cpu.Pipeline.on_cycle_end ~name:"timeline-sampler" p (fun p ->
      if p.Sdiq_cpu.Pipeline.cycle >= !next then begin
        next := p.Sdiq_cpu.Pipeline.cycle + interval;
        samples := sample_of p :: !samples
      end);
  ignore (Sdiq_cpu.Pipeline.run ~max_insns p : Sdiq_cpu.Stats.t);
  { samples = List.rev !samples; stats = p.Sdiq_cpu.Pipeline.stats }

(* CSV with a header row, one line per sample. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "cycle,committed,iq_occupancy,iq_banks_on,iq_active_size,policy_limit,rf_live\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d\n" s.cycle s.committed
           s.iq_occupancy s.iq_banks_on s.iq_active_size
           (min s.policy_limit 9999) s.rf_live))
    t.samples;
  Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "%8s %9s %7s %7s %8s %7s@." "cycle" "committed" "occ" "banks"
    "limit" "rf";
  List.iter
    (fun s ->
      Fmt.pf ppf "%8d %9d %7d %7d %8d %7d@." s.cycle s.committed
        s.iq_occupancy s.iq_banks_on (min s.policy_limit 9999) s.rf_live)
    t.samples
