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
  mutable next : int; (* cycle of the next sample *)
  mutable rev : sample list; (* newest first *)
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

(* The sampler is an ordinary per-cycle sink on the pipeline's event
   bus: it rides alongside any other observer rather than owning the
   step loop. *)
let attach ?(interval = 200) p =
  let t = { next = 0; rev = [] } in
  Sdiq_cpu.Pipeline.on_cycle_end ~name:"timeline-sampler" p (fun p ->
      if p.Sdiq_cpu.Pipeline.cycle >= t.next then begin
        t.next <- p.Sdiq_cpu.Pipeline.cycle + interval;
        t.rev <- sample_of p :: t.rev
      end);
  t

let samples t = List.rev t.rev

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
    (samples t);
  Buffer.contents buf
