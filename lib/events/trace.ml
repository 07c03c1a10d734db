(* JSONL trace sink: one JSON object per event, one event per line.

   The format is hand-rolled (this repo deliberately has no JSON
   dependency) and deliberately flat: every line has "cycle" (the
   0-based cycle the event belongs to) and "ev" (the kind name from
   [Event.kind_name]); the rest are kind-specific scalar fields. The
   lint CLI's `--trace` delivery-integrity pass parses exactly this
   shape, and `jq` handles it directly (see README). *)

open Sdiq_isa

let bool b = if b then "true" else "false"

let fetch_outcome_fields = function
  | Event.Sequential -> {|,"outcome":"seq"|}
  | Event.Cond_branch { taken; mispredicted; btb_bubble } ->
    Printf.sprintf
      {|,"outcome":"cond","taken":%s,"mispredicted":%s,"btb_bubble":%s|}
      (bool taken) (bool mispredicted) (bool btb_bubble)
  | Event.Jump { btb_bubble } ->
    Printf.sprintf {|,"outcome":"jump","btb_bubble":%s|} (bool btb_bubble)
  | Event.Call { btb_bubble } ->
    Printf.sprintf {|,"outcome":"call","btb_bubble":%s|} (bool btb_bubble)
  | Event.Return { mispredicted } ->
    Printf.sprintf {|,"outcome":"ret","mispredicted":%s|} (bool mispredicted)

let dyn_fields (d : Exec.dyn) =
  Printf.sprintf {|,"sn":%d,"pc":%d,"op":"%s"|} d.Exec.sn d.Exec.pc
    (Sdiq_util.Json.escape (Instr.to_string d.Exec.instr))

let wp_field wp = if wp then {|,"wp":true|} else ""

let body ev =
  match ev with
  | Event.Fetch { dyn; outcome; wp } ->
    dyn_fields dyn ^ fetch_outcome_fields outcome ^ wp_field wp
  | Event.Annotation { pc; value; delivery } ->
    Printf.sprintf {|,"pc":%d,"value":%d,"delivery":"%s"|} pc value
      (match delivery with Event.Noop_slot -> "noop" | Event.Tag -> "tag")
  | Event.Dispatch { dyn; kind; iq_slot; rob_idx; cam_writes; wp } ->
    Printf.sprintf
      {|%s,"kind":"%s","iq_slot":%d,"rob_idx":%d,"cam_writes":%d%s|}
      (dyn_fields dyn)
      (match kind with
      | Event.Plain -> "plain"
      | Event.Load -> "load"
      | Event.Store -> "store")
      iq_slot rob_idx cam_writes (wp_field wp)
  | Event.Dispatch_stall reason ->
    Printf.sprintf {|,"reason":"%s"|}
      (match reason with
      | Event.Policy_limit -> "policy"
      | Event.Iq_full -> "iq_full"
      | Event.Rob_full -> "rob_full"
      | Event.No_reg -> "no_reg"
      | Event.Lsq_full -> "lsq_full")
  | Event.Wakeup { tags; woken; naive; nonempty; gated; suppressed } ->
    Printf.sprintf
      {|,"tags":%d,"woken":%d,"naive":%d,"nonempty":%d,"gated":%d,"suppressed":%d|}
      tags woken naive nonempty gated suppressed
  | Event.Select { rob_idx; iq_slot } ->
    Printf.sprintf {|,"rob_idx":%d,"iq_slot":%d|} rob_idx iq_slot
  | Event.Select_scan { entries } -> Printf.sprintf {|,"entries":%d|} entries
  | Event.Issue { dyn; latency; store_forward; wp } ->
    Printf.sprintf {|%s,"latency":%d,"store_forward":%s%s|} (dyn_fields dyn)
      latency (bool store_forward) (wp_field wp)
  | Event.Writeback { dyn; rob_idx } ->
    Printf.sprintf {|%s,"rob_idx":%d|} (dyn_fields dyn) rob_idx
  | Event.Rf_read { ints; fps } ->
    Printf.sprintf {|,"int":%d,"fp":%d|} ints fps
  | Event.Rf_write { file; phys } ->
    Printf.sprintf {|,"file":"%s","phys":%d|}
      (match file with Event.Int_rf -> "int" | Event.Fp_rf -> "fp")
      phys
  | Event.Commit { dyn } -> dyn_fields dyn
  | Event.Squash { dyn; squashed } ->
    Printf.sprintf {|%s,"squashed":%d|} (dyn_fields dyn) squashed
  | Event.Cache_miss { level; addr } ->
    Printf.sprintf {|,"level":"%s","addr":%d|}
      (match level with
      | Event.Il1 -> "il1"
      | Event.Dl1 -> "dl1"
      | Event.L2 -> "l2")
      addr
  | Event.Tlb_miss { tlb; addr } ->
    Printf.sprintf {|,"tlb":"%s","addr":%d|}
      (match tlb with Event.Itlb -> "itlb" | Event.Dtlb -> "dtlb")
      addr
  | Event.Resize { before; after } ->
    Printf.sprintf {|,"before":%d,"after":%d|} before after
  | Event.Bank_gated { unit_; bank } | Event.Bank_ungated { unit_; bank } ->
    Printf.sprintf {|,"unit":"%s","bank":%d|}
      (match unit_ with
      | Event.Iq_bank -> "iq"
      | Event.Int_rf_bank -> "int_rf"
      | Event.Fp_rf_bank -> "fp_rf")
      bank
  | Event.Cycle_end
      {
        cycle = _;
        throttled;
        iq_occupancy;
        iq_banks_on;
        int_rf_banks_on;
        int_rf_live;
        fp_rf_banks_on;
      } ->
    Printf.sprintf
      {|,"throttled":%s,"iq_occupancy":%d,"iq_banks_on":%d,"int_rf_banks_on":%d,"int_rf_live":%d,"fp_rf_banks_on":%d|}
      (bool throttled) iq_occupancy iq_banks_on int_rf_banks_on int_rf_live
      fp_rf_banks_on

(* The sink tracks the current cycle itself: every event between two
   [Cycle_end]s belongs to the cycle the next [Cycle_end] closes. *)
let sink oc =
  let cycle = ref 0 in
  fun ev ->
    Printf.fprintf oc {|{"cycle":%d,"ev":"%s"%s}|} !cycle (Event.kind_name ev)
      (body ev);
    output_char oc '\n';
    match ev with Event.Cycle_end _ -> incr cycle | _ -> ()
