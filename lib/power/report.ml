(* Normalised savings of a technique run against a baseline run — the
   quantities every figure in the paper's evaluation plots.

   All savings are energy ratios over the whole program run, so a slower
   technique pays for its extra cycles in precharge and leakage, exactly
   as in the paper (its static savings of 31% are below its 37% banks-off
   because of the small IPC loss). *)

open Sdiq_cpu

type t = {
  ipc_loss_pct : float;           (* Figure 6 / 10 *)
  iq_occupancy_reduction_pct : float; (* Figure 7 *)
  iq_dynamic_saving_pct : float;  (* Figure 8 / 11 *)
  iq_static_saving_pct : float;
  iq_banks_off_pct : float;
  rf_dynamic_saving_pct : float;  (* Figure 9 / 12 *)
  rf_static_saving_pct : float;
  dispatch_reduction_pct : float; (* in-flight pressure proxy, Section 5.2.3 *)
}

let pct ~base v = if base = 0. then 0. else (base -. v) /. base *. 100.

let compute ?(params = Params.default) ?(cfg = Config.default)
    ~(base : Stats.t) (tech : Stats.t) : t =
  let base_iq = Iq_power.naive params cfg base in
  let tech_iq = Iq_power.technique params tech in
  let base_rf = Rf_power.int_baseline params cfg base in
  let tech_rf = Rf_power.int_gated params tech in
  {
    ipc_loss_pct = pct ~base:(Stats.ipc base) (Stats.ipc tech);
    iq_occupancy_reduction_pct =
      pct ~base:(Stats.avg_iq_occupancy base) (Stats.avg_iq_occupancy tech);
    iq_dynamic_saving_pct =
      pct ~base:base_iq.Iq_power.dynamic tech_iq.Iq_power.dynamic;
    iq_static_saving_pct =
      pct ~base:base_iq.Iq_power.static_ tech_iq.Iq_power.static_;
    iq_banks_off_pct =
      (let nb = float_of_int (Config.iq_banks cfg) in
       if tech.Stats.cycles = 0 then 0.
       else
         100.
         *. (1.
             -. float_of_int tech.Stats.iq_banks_on_sum
                /. (nb *. float_of_int tech.Stats.cycles)));
    rf_dynamic_saving_pct =
      pct ~base:base_rf.Rf_power.dynamic tech_rf.Rf_power.dynamic;
    rf_static_saving_pct =
      pct ~base:base_rf.Rf_power.static_ tech_rf.Rf_power.static_;
    dispatch_reduction_pct =
      pct ~base:(Stats.avg_int_rf_live base) (Stats.avg_int_rf_live tech);
  }

(* The "nonEmpty" bar of Figure 8: wakeup gating alone on the baseline
   machine, no resizing, relative to the naive baseline. *)
let non_empty_dynamic_saving ?(params = Params.default)
    ?(cfg = Config.default) (base : Stats.t) : float =
  let naive = Iq_power.naive params cfg base in
  let gated = Iq_power.gated params cfg base in
  pct ~base:naive.Iq_power.dynamic gated.Iq_power.dynamic

(* Each reduction prints as the signed change it is: a 16% saving reads
   -16.0%, a 16% growth +16.0%. *)
let pp ppf t =
  Fmt.pf ppf
    "IPC loss %.2f%%, IQ occ %+.1f%%, IQ dyn %+.1f%%, IQ static %+.1f%% \
     (banks off %.1f%%), RF dyn %+.1f%%, RF static %+.1f%%"
    t.ipc_loss_pct (-.t.iq_occupancy_reduction_pct)
    (-.t.iq_dynamic_saving_pct) (-.t.iq_static_saving_pct) t.iq_banks_off_pct
    (-.t.rf_dynamic_saving_pct) (-.t.rf_static_saving_pct)
