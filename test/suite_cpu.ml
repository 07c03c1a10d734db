(* Tests for the CPU substrates: caches, branch prediction, register file,
   the issue queue (including the paper's Figure 1 wakeup counts and the
   Figure 2 new_head mechanics), and the full pipeline. *)

open Sdiq_isa
module Cache = Sdiq_cpu.Cache
module Branch_pred = Sdiq_cpu.Branch_pred
module Regfile = Sdiq_cpu.Regfile
module Iq = Sdiq_cpu.Iq
module Rob = Sdiq_cpu.Rob
module Policy = Sdiq_cpu.Policy
module Pipeline = Sdiq_cpu.Pipeline
module Config = Sdiq_cpu.Config
module Stats = Sdiq_cpu.Stats

let r = Reg.int

(* --- cache --- *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~sets:4 ~ways:2 ~line:32 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 100);
  Alcotest.(check bool) "second access hits" true (Cache.access c 100);
  Alcotest.(check bool) "same line hits" true (Cache.access c 96)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 ~line:16 in
  ignore (Cache.access c 0);    (* line 0 *)
  ignore (Cache.access c 16);   (* line 1 *)
  ignore (Cache.access c 0);    (* touch line 0: line 1 is now LRU *)
  ignore (Cache.access c 32);   (* evicts line 1 *)
  Alcotest.(check bool) "line 0 still present" true (Cache.access c 0);
  Alcotest.(check bool) "line 1 evicted" false (Cache.access c 16)

let test_cache_capacity () =
  let c = Cache.create ~sets:2 ~ways:2 ~line:16 in
  (* 4 lines capacity: fill 4 distinct lines, all should then hit. *)
  for i = 0 to 3 do
    ignore (Cache.access c (i * 16))
  done;
  for i = 0 to 3 do
    Alcotest.(check bool) "resident" true (Cache.access c (i * 16))
  done;
  Alcotest.(check int) "4 misses" 4 (Cache.misses c);
  Alcotest.(check int) "4 hits" 4 (Cache.hits c)

(* --- branch predictor --- *)

let test_bimodal_learns_taken () =
  let p = Branch_pred.create Config.default in
  for _ = 1 to 4 do
    Branch_pred.update_direction p 100 ~taken:true
  done;
  Alcotest.(check bool) "predicts taken" true
    (Branch_pred.predict_direction p 100)

let test_predictor_learns_alternating_via_gshare () =
  let p = Branch_pred.create Config.default in
  (* Alternating pattern: gshare with history should learn it; run enough
     iterations for the selector to pick gshare. *)
  let correct = ref 0 in
  for i = 1 to 400 do
    let taken = i mod 2 = 0 in
    let pred = Branch_pred.predict_direction p 200 in
    if pred = taken && i > 200 then incr correct;
    Branch_pred.update_direction p 200 ~taken
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gshare catches alternation (%d/200)" !correct)
    true (!correct > 180)

let test_btb_roundtrip () =
  let p = Branch_pred.create Config.default in
  Alcotest.(check int) "cold miss" (-1) (Branch_pred.btb_lookup_tgt p 300);
  Branch_pred.btb_update p 300 ~target:77;
  Alcotest.(check int) "hit after update" 77 (Branch_pred.btb_lookup_tgt p 300)

let test_ras_lifo () =
  let p = Branch_pred.create Config.default in
  Branch_pred.ras_push p 10;
  Branch_pred.ras_push p 20;
  Alcotest.(check int) "pop 20" 20 (Branch_pred.ras_pop_addr p);
  Alcotest.(check int) "pop 10" 10 (Branch_pred.ras_pop_addr p);
  Alcotest.(check int) "empty" (-1) (Branch_pred.ras_pop_addr p)

(* --- register file --- *)

let test_regfile_alloc_lowest_first () =
  let rf = Regfile.create ~size:16 ~bank_size:4 in
  Alcotest.(check int) "first alloc is reg 0" 0 (Regfile.alloc_idx rf);
  Alcotest.(check int) "second alloc is reg 1" 1 (Regfile.alloc_idx rf)

let test_regfile_exhaustion_and_release () =
  let rf = Regfile.create ~size:4 ~bank_size:2 in
  for _ = 1 to 4 do
    ignore (Regfile.alloc_idx rf : int)
  done;
  Alcotest.(check int) "no failures yet" 0 rf.Regfile.alloc_failures;
  Alcotest.(check int) "exhausted" (-1) (Regfile.alloc_idx rf);
  Alcotest.(check int) "failure counted" 1 rf.Regfile.alloc_failures;
  Regfile.release rf 2;
  Alcotest.(check int) "released reg reused" 2 (Regfile.alloc_idx rf)

let test_regfile_banks_on () =
  let rf = Regfile.create ~size:16 ~bank_size:4 in
  let alloc () = ignore (Regfile.alloc_idx rf : int) in
  Alcotest.(check int) "all banks off" 0 (Regfile.banks_on rf);
  alloc ();
  Alcotest.(check int) "one bank on" 1 (Regfile.banks_on rf);
  (* Clustering: next three allocs stay in bank 0. *)
  alloc ();
  alloc ();
  alloc ();
  Alcotest.(check int) "still one bank" 1 (Regfile.banks_on rf);
  alloc ();
  Alcotest.(check int) "second bank on" 2 (Regfile.banks_on rf)

let test_regfile_double_free_rejected () =
  let rf = Regfile.create ~size:4 ~bank_size:2 in
  ignore (Regfile.alloc_idx rf : int);
  Regfile.release rf 0;
  Alcotest.check_raises "double free"
    (Invalid_argument "Regfile.release: double free") (fun () ->
      Regfile.release rf 0)

(* --- issue queue --- *)

let mk_iq () = Iq.create ~size:8 ~bank_size:2

let test_iq_dispatch_issue_basic () =
  let q = mk_iq () in
  Alcotest.(check bool) "empty" true (Iq.is_empty q);
  let s0 = Iq.dispatch q ~rob_idx:0 ~ops:[ (1, true) ] in
  let s1 = Iq.dispatch q ~rob_idx:1 ~ops:[ (2, false) ] in
  Alcotest.(check int) "occupancy 2" 2 (Iq.occupancy q);
  Alcotest.(check bool) "entry 0 ready" true (Iq.slot_ready q s0);
  Alcotest.(check bool) "entry 1 not ready" false (Iq.slot_ready q s1);
  Iq.issue q s0;
  Alcotest.(check int) "occupancy 1" 1 (Iq.occupancy q)

let test_iq_full_and_wrap () =
  let q = mk_iq () in
  for i = 0 to 7 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.(check bool) "full" true (Iq.is_full q);
  (* Issue from the middle: a hole, still full (non-collapsible). *)
  Iq.issue q 3;
  Alcotest.(check bool) "still full despite hole" true (Iq.is_full q);
  (* Issue the head: head sweeps to slot 1, freeing slot 0. *)
  Iq.issue q 0;
  Alcotest.(check bool) "no longer full" false (Iq.is_full q);
  let s = Iq.dispatch q ~rob_idx:8 ~ops:[] in
  Alcotest.(check int) "wrapped to slot 0" 0 s

let test_iq_head_skips_holes () =
  let q = mk_iq () in
  for i = 0 to 3 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  (* Issue 1 and 2 (holes), then 0: head must jump to 3. *)
  Iq.issue q 1;
  Iq.issue q 2;
  Iq.issue q 0;
  Alcotest.(check int) "one valid entry" 1 (Iq.occupancy q);
  Iq.issue q 3;
  Alcotest.(check bool) "empty" true (Iq.is_empty q)

(* Figure 2: new_head motion. Queue holds a(issued later),b,c(already
   issued, holes),d; new_head at a; when a issues, new_head moves three
   slots to d, so with max_new_range=4 three more may dispatch. *)
let test_iq_fig2_new_head_motion () =
  let q = mk_iq () in
  Iq.start_new_region q;
  let sa = Iq.dispatch q ~rob_idx:0 ~ops:[] in (* a *)
  let sb = Iq.dispatch q ~rob_idx:1 ~ops:[] in (* b *)
  let sc = Iq.dispatch q ~rob_idx:2 ~ops:[] in (* c *)
  let _d = Iq.dispatch q ~rob_idx:3 ~ops:[] in (* d *)
  (* b and c issue first, leaving holes between a and d. *)
  Iq.issue q sb;
  Iq.issue q sc;
  Alcotest.(check int) "span counts holes" 4 (Iq.new_region_span q);
  (* a issues: new_head sweeps three slots to d. *)
  Iq.issue q sa;
  Alcotest.(check int) "span after new_head moves" 1 (Iq.new_region_span q)

let test_iq_start_new_region_resets_span () =
  let q = mk_iq () in
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[]);
  ignore (Iq.dispatch q ~rob_idx:1 ~ops:[]);
  Alcotest.(check int) "span 2" 2 (Iq.new_region_span q);
  Iq.start_new_region q;
  Alcotest.(check int) "span reset" 0 (Iq.new_region_span q);
  ignore (Iq.dispatch q ~rob_idx:2 ~ops:[]);
  Alcotest.(check int) "span 1" 1 (Iq.new_region_span q)

(* Figure 1 wakeup counts. Baseline: all six instructions in the queue;
   a and b broadcast together (6 wakeups each), then c and d (3 each),
   total 18. Limited to 2 entries: a,b with c,d present -> 2 each; c,d
   with e,f present -> 3 each; total 10. *)
let test_iq_fig1_baseline_wakeups () =
  let q = Iq.create ~size:80 ~bank_size:8 in
  (* Tags: results of a,b,c,d are 10,11,12,13. r2 (live from b) feeds f. *)
  let _a = Iq.dispatch q ~rob_idx:0 ~ops:[ (1, true) ] in
  let _b = Iq.dispatch q ~rob_idx:1 ~ops:[ (2, true) ] in
  let sc = Iq.dispatch q ~rob_idx:2 ~ops:[ (10, false) ] in
  let sd = Iq.dispatch q ~rob_idx:3 ~ops:[ (11, false) ] in
  let _e = Iq.dispatch q ~rob_idx:4 ~ops:[ (12, false); (13, false) ] in
  let _f = Iq.dispatch q ~rob_idx:5 ~ops:[ (11, false); (13, false) ] in
  Iq.issue q 0;
  Iq.issue q 1;
  (* a and b complete together: 6 non-ready operands each. *)
  let woken = Iq.broadcast_many q [ 10; 11 ] in
  Alcotest.(check int) "a,b wake 3 operands" 3 woken;
  Alcotest.(check int) "12 comparisons so far" 12 q.Iq.wakeups_gated;
  Iq.issue q sc;
  Iq.issue q sd;
  let _ = Iq.broadcast_many q [ 12; 13 ] in
  Alcotest.(check int) "18 wakeups total, as in the paper" 18
    q.Iq.wakeups_gated

let test_iq_fig1_limited_wakeups () =
  let q = Iq.create ~size:80 ~bank_size:8 in
  (* Only a,b in the queue; they issue; c,d dispatch; a,b broadcast. *)
  let sa = Iq.dispatch q ~rob_idx:0 ~ops:[ (1, true) ] in
  let sb = Iq.dispatch q ~rob_idx:1 ~ops:[ (2, true) ] in
  Iq.issue q sa;
  Iq.issue q sb;
  let sc = Iq.dispatch q ~rob_idx:2 ~ops:[ (10, false) ] in
  let sd = Iq.dispatch q ~rob_idx:3 ~ops:[ (11, false) ] in
  let _ = Iq.broadcast_many q [ 10; 11 ] in
  Alcotest.(check int) "a,b cause 2 wakeups each" 4 q.Iq.wakeups_gated;
  Iq.issue q sc;
  Iq.issue q sd;
  (* e, f dispatch; f's r2 operand (from b) is already ready. *)
  ignore (Iq.dispatch q ~rob_idx:4 ~ops:[ (12, false); (13, false) ]);
  ignore (Iq.dispatch q ~rob_idx:5 ~ops:[ (11, true); (13, false) ]);
  let _ = Iq.broadcast_many q [ 12; 13 ] in
  Alcotest.(check int) "10 wakeups total, as in the paper" 10
    q.Iq.wakeups_gated

let test_iq_banks_on () =
  let q = Iq.create ~size:16 ~bank_size:4 in
  Alcotest.(check int) "all off" 0 (Iq.banks_on q);
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[]);
  Alcotest.(check int) "one on" 1 (Iq.banks_on q);
  for i = 1 to 4 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.(check int) "two on" 2 (Iq.banks_on q);
  (* Drain the first bank: it turns off. *)
  for s = 0 to 3 do
    Iq.issue q s
  done;
  Alcotest.(check int) "one on after drain" 1 (Iq.banks_on q)

let test_iq_naive_vs_gated () =
  let q = Iq.create ~size:80 ~bank_size:8 in
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[ (5, false) ]);
  let _ = Iq.broadcast_many q [ 5 ] in
  Alcotest.(check int) "gated touches 1" 1 q.Iq.wakeups_gated;
  Alcotest.(check int) "naive touches 160" 160 q.Iq.wakeups_naive

(* --- policies --- *)

let test_policy_software_limits () =
  let q = mk_iq () in
  let p = Policy.software () in
  Policy.on_annotation p q ~pc:0 ~value:2;
  Alcotest.(check bool) "allows first" true (Policy.allows p q);
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[]);
  ignore (Iq.dispatch q ~rob_idx:1 ~ops:[]);
  Alcotest.(check bool) "blocks third" false (Policy.allows p q);
  Iq.issue q 0;
  Alcotest.(check bool) "allows after head issue" true (Policy.allows p q)

let test_policy_unlimited_only_blocks_when_full () =
  let q = mk_iq () in
  let p = Policy.unlimited in
  for i = 0 to 7 do
    Alcotest.(check bool) "allows" true (Policy.allows p q);
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.(check bool) "blocks when full" false (Policy.allows p q)

let test_policy_abella_shrinks_when_idle () =
  let q = Iq.create ~size:80 ~bank_size:8 in
  let p = Policy.abella ~window:10 () in
  (* Empty queue for many windows: the limit should shrink to its floor. *)
  for _ = 1 to 200 do
    Policy.end_cycle p q ~throttled:false ()
  done;
  Alcotest.(check int) "shrunk to min" 8 (Policy.current_limit p q);
  Alcotest.(check int) "ring physically shrunk" 8 (Iq.active_size q)

let test_policy_abella_grows_under_pressure () =
  let q = Iq.create ~size:80 ~bank_size:8 in
  let p = Policy.abella ~window:10 () in
  for _ = 1 to 200 do
    Policy.end_cycle p q ~throttled:false ()
  done;
  (* Now sustained throttling: it should grow back. *)
  for _ = 1 to 50 do
    Policy.end_cycle p q ~throttled:true ()
  done;
  Alcotest.(check bool) "grew" true (Policy.current_limit p q > 16)

(* --- pipeline --- *)

let assemble build =
  let b = Asm.create () in
  build b;
  Asm.assemble b ~entry:"main"

(* A stream of independent 1-cycle instructions: IPC should approach the
   ALU count (6), the binding resource. *)
let test_pipeline_independent_ipc () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 2000;
        Asm.label p "loop";
        for i = 2 to 6 do
          Asm.addi p (r i) (r i) 1
        done;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let stats = Pipeline.simulate prog in
  let ipc = Stats.ipc stats in
  Alcotest.(check bool) (Printf.sprintf "high ILP: ipc %.2f" ipc) true
    (ipc > 4.0)

(* A serial dependence chain: IPC must settle near 1. *)
let test_pipeline_chain_ipc () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 3000;
        Asm.label p "loop";
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let stats = Pipeline.simulate prog in
  let ipc = Stats.ipc stats in
  Alcotest.(check bool) (Printf.sprintf "serial: ipc %.2f" ipc) true
    (ipc > 1.2 && ipc < 2.6)
(* the loop has 2 instructions per iteration with a 1-cycle recurrence:
   the decrement chain limits throughput to ~2 instructions/cycle *)

let test_pipeline_committed_matches_exec () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 50;
        Asm.li p (r 2) 0;
        Asm.label p "loop";
        Asm.add p (r 2) (r 2) (r 1);
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.store p Reg.zero (r 2) 7;
        Asm.halt p)
  in
  let reference = Exec.create prog in
  let ref_steps = Exec.run reference in
  let t = Pipeline.create prog in
  let stats = Pipeline.run t in
  (* Halt is executed by the oracle but never dispatched. *)
  Alcotest.(check int) "committed = executed - halt" (ref_steps - 1)
    stats.Stats.committed;
  Alcotest.(check int) "memory state agrees" (Exec.peek reference 7)
    (Exec.peek t.Pipeline.exec 7)

let test_pipeline_mispredict_penalty () =
  (* The same loop body, branching on a data-dependent pseudo-random bit
     (unpredictable) vs never (predictable): the former must be slower. *)
  let mk flip =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 1500;
        Asm.li p (r 4) 12345;
        Asm.label p "loop";
        (* xorshift-ish scramble; low bit decides the branch *)
        Asm.shri p (r 5) (r 4) 3;
        Asm.xor p (r 4) (r 4) (r 5);
        Asm.addi p (r 4) (r 4) 77;
        (if flip then Asm.andi p (r 6) (r 4) 1 else Asm.li p (r 6) 0);
        Asm.beq p (r 6) Reg.zero "skip";
        Asm.addi p (r 7) (r 7) 1;
        Asm.label p "skip";
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let s_pred = Pipeline.simulate (mk false) in
  let s_rand = Pipeline.simulate (mk true) in
  Alcotest.(check bool) "random branch is slower" true
    (Stats.ipc s_rand < Stats.ipc s_pred);
  Alcotest.(check bool) "mispredicts recorded" true
    (s_rand.Stats.mispredicts > 100)

let test_pipeline_cache_miss_slows () =
  (* Stride through a large array (L1-thrashing) vs a small one. *)
  let mk stride n =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) n;
        Asm.li p (r 2) 0;
        Asm.label p "loop";
        Asm.load p (r 3) (r 2) 4096;
        Asm.add p (r 4) (r 4) (r 3);
        Asm.addi p (r 2) (r 2) stride;
        Asm.andi p (r 2) (r 2) 1048575;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let s_small = Pipeline.simulate (mk 1 2000) in
  let s_big = Pipeline.simulate (mk 97 2000) in
  Alcotest.(check bool) "thrashing is slower" true
    (s_big.Stats.cycles > s_small.Stats.cycles);
  Alcotest.(check bool) "misses recorded" true
    (s_big.Stats.dl1_misses > s_small.Stats.dl1_misses)

let test_pipeline_store_forwarding () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 500;
        Asm.label p "loop";
        Asm.store p Reg.zero (r 1) 64;
        Asm.load p (r 2) Reg.zero 64;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let stats = Pipeline.simulate prog in
  Alcotest.(check bool) "forwards happen" true
    (stats.Stats.store_forwards > 100)

let test_pipeline_iqset_consumes_slot () =
  (* A program with many IQSETs must commit the same instructions but
     dispatch slots are consumed: check the counter. *)
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 100;
        Asm.label p "loop";
        Asm.iqset p 80;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let t = Pipeline.create ~policy:(Policy.software ()) prog in
  let stats = Pipeline.run t in
  Alcotest.(check bool) "iqset slots counted" true
    (stats.Stats.iqset_dispatch_slots >= 100);
  Alcotest.(check int) "iqsets never commit" 201 stats.Stats.committed

let test_pipeline_software_policy_limits_occupancy () =
  (* A wide-ILP loop, annotated to 8 entries: occupancy must respect the
     limit (within the old-region allowance) and the result must match. *)
  let mk annotated =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 800;
        Asm.label p "loop";
        if annotated then Asm.iqset p 8;
        for i = 2 to 7 do
          Asm.addi p (r i) (r i) 1
        done;
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.store p Reg.zero (r 2) 3;
        Asm.halt p)
  in
  let base = Pipeline.simulate (mk false) in
  let t = Pipeline.create ~policy:(Policy.software ()) (mk true) in
  let limited = Pipeline.run t in
  Alcotest.(check bool) "occupancy reduced" true
    (Stats.avg_iq_occupancy limited < Stats.avg_iq_occupancy base);
  Alcotest.(check bool) "wakeups reduced" true
    (limited.Stats.iq_wakeups_gated < base.Stats.iq_wakeups_gated)

let test_pipeline_deterministic () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 300;
        Asm.label p "loop";
        Asm.mul p (r 2) (r 1) (r 1);
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.halt p)
  in
  let a = Pipeline.simulate prog in
  let b = Pipeline.simulate prog in
  Alcotest.(check int) "same cycles" a.Stats.cycles b.Stats.cycles;
  Alcotest.(check int) "same wakeups" a.Stats.iq_wakeups_gated
    b.Stats.iq_wakeups_gated

let test_pipeline_call_ret () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 200;
        Asm.label p "loop";
        Asm.call p "inc";
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.store p Reg.zero (r 2) 5;
        Asm.halt p;
        let q = Asm.proc b "inc" in
        Asm.addi q (r 2) (r 2) 1;
        Asm.ret q)
  in
  let t = Pipeline.create prog in
  let stats = Pipeline.run t in
  Alcotest.(check int) "200 increments" 200 (Exec.peek t.Pipeline.exec 5);
  (* RAS should predict nearly all returns: low mispredict count. *)
  Alcotest.(check bool) "returns predicted" true
    (stats.Stats.mispredicts < 20)

let test_pipeline_max_insns_budget () =
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.label p "spin";
        Asm.addi p (r 1) (r 1) 1;
        Asm.jmp p "spin")
  in
  let t = Pipeline.create prog in
  let stats = Pipeline.run ~max_insns:5000 t in
  Alcotest.(check bool) "stopped near budget" true
    (stats.Stats.committed >= 5000 && stats.Stats.committed < 5100)

let test_pipeline_fp_program () =
  let f = Reg.fp in
  let prog =
    assemble (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 100;
        Asm.fli p (f 1) 1.0;
        Asm.fli p (f 2) 1.01;
        Asm.label p "loop";
        Asm.fmul p (f 1) (f 1) (f 2);
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.ftoi p (r 2) (f 1);
        Asm.store p Reg.zero (r 2) 9;
        Asm.halt p)
  in
  let t = Pipeline.create prog in
  let stats = Pipeline.run t in
  Alcotest.(check int) "fp result" 2 (Exec.peek t.Pipeline.exec 9);
  Alcotest.(check bool) "fp rf writes happened" true
    (stats.Stats.fp_rf_writes > 100)

let suite =
  [
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "bimodal learns" `Quick test_bimodal_learns_taken;
    Alcotest.test_case "gshare catches alternation" `Quick
      test_predictor_learns_alternating_via_gshare;
    Alcotest.test_case "btb roundtrip" `Quick test_btb_roundtrip;
    Alcotest.test_case "ras lifo" `Quick test_ras_lifo;
    Alcotest.test_case "regfile lowest-first" `Quick
      test_regfile_alloc_lowest_first;
    Alcotest.test_case "regfile exhaustion" `Quick
      test_regfile_exhaustion_and_release;
    Alcotest.test_case "regfile banks on" `Quick test_regfile_banks_on;
    Alcotest.test_case "regfile double free" `Quick
      test_regfile_double_free_rejected;
    Alcotest.test_case "iq dispatch/issue" `Quick test_iq_dispatch_issue_basic;
    Alcotest.test_case "iq full and wrap" `Quick test_iq_full_and_wrap;
    Alcotest.test_case "iq head skips holes" `Quick test_iq_head_skips_holes;
    Alcotest.test_case "iq fig2 new_head motion" `Quick
      test_iq_fig2_new_head_motion;
    Alcotest.test_case "iq new region resets span" `Quick
      test_iq_start_new_region_resets_span;
    Alcotest.test_case "iq fig1 baseline wakeups = 18" `Quick
      test_iq_fig1_baseline_wakeups;
    Alcotest.test_case "iq fig1 limited wakeups = 10" `Quick
      test_iq_fig1_limited_wakeups;
    Alcotest.test_case "iq banks on" `Quick test_iq_banks_on;
    Alcotest.test_case "iq naive vs gated" `Quick test_iq_naive_vs_gated;
    Alcotest.test_case "software policy limits" `Quick
      test_policy_software_limits;
    Alcotest.test_case "unlimited blocks only when full" `Quick
      test_policy_unlimited_only_blocks_when_full;
    Alcotest.test_case "abella shrinks when idle" `Quick
      test_policy_abella_shrinks_when_idle;
    Alcotest.test_case "abella grows under pressure" `Quick
      test_policy_abella_grows_under_pressure;
    Alcotest.test_case "pipeline independent ipc" `Quick
      test_pipeline_independent_ipc;
    Alcotest.test_case "pipeline chain ipc" `Quick test_pipeline_chain_ipc;
    Alcotest.test_case "pipeline matches exec" `Quick
      test_pipeline_committed_matches_exec;
    Alcotest.test_case "mispredict penalty" `Quick
      test_pipeline_mispredict_penalty;
    Alcotest.test_case "cache miss slows" `Quick test_pipeline_cache_miss_slows;
    Alcotest.test_case "store forwarding" `Quick
      test_pipeline_store_forwarding;
    Alcotest.test_case "iqset consumes slot" `Quick
      test_pipeline_iqset_consumes_slot;
    Alcotest.test_case "software policy reduces occupancy" `Quick
      test_pipeline_software_policy_limits_occupancy;
    Alcotest.test_case "pipeline deterministic" `Quick
      test_pipeline_deterministic;
    Alcotest.test_case "call/ret with RAS" `Quick test_pipeline_call_ret;
    Alcotest.test_case "max insns budget" `Quick
      test_pipeline_max_insns_budget;
    Alcotest.test_case "fp program" `Quick test_pipeline_fp_program;
  ]
