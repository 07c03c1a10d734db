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

(* A cold cache or TLB must miss on negative lines and pages: the
   invalid-way marker used to be -1, which is also the line of byte
   addresses -line..-1, and truncating division put -31..-1 on line 0. *)
let test_cache_cold_negative_line_misses () =
  let c = Cache.create ~sets:512 ~ways:4 ~line:32 in
  Alcotest.(check bool) "cold probe of line -1 misses" true
    (Cache.probe c ~now:0 (-32) = Cache.Miss);
  Alcotest.(check bool) "then it hits" true (Cache.access c (-32))

let test_cache_negative_byte_not_line_zero () =
  let c = Cache.create ~sets:512 ~ways:4 ~line:32 in
  ignore (Cache.access c 5);
  Alcotest.(check bool) "address -5 is not on line 0" true
    (Cache.probe c ~now:0 (-5) = Cache.Miss);
  Alcotest.(check bool) "-32 shares line -1 with -5" true (Cache.access c (-32))

let test_tlb_cold_negative_page_misses () =
  let t = Sdiq_cpu.Tlb.create ~entries:16 ~page_size:256 in
  Alcotest.(check bool) "cold access of page -1 misses" false
    (Sdiq_cpu.Tlb.access t (-1));
  Alcotest.(check bool) "then it hits" true (Sdiq_cpu.Tlb.access t (-256))

(* --- lazily materialised tables --- *)

module Chunked = Sdiq_cpu.Chunked

let row t r =
  let c = Chunked.chunk t r and b = Chunked.base t r in
  Array.to_list (Array.sub c b 3)

let test_chunked_untouched_rows_read_template () =
  let t = Chunked.create ~rows:50 ~template:[| -1; 0; 7 |] in
  for r = 49 downto 0 do
    Alcotest.(check (list int)) (Printf.sprintf "row %d" r) [ -1; 0; 7 ] (row t r)
  done

let test_chunked_rows_independent () =
  let rows = 100 in
  let t = Chunked.create ~rows ~template:[| 0; 0; 0 |] in
  for r = 0 to rows - 1 do
    let c = Chunked.chunk t r and b = Chunked.base t r in
    c.(b) <- r;
    c.(b + 2) <- -r
  done;
  for r = 0 to rows - 1 do
    Alcotest.(check (list int)) (Printf.sprintf "row %d" r) [ r; 0; -r ] (row t r)
  done;
  Alcotest.check_raises "negative row" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Chunked.chunk t (-1) : int array))

(* A Table 1 machine's caches, BTB, predictor tables and oracle memory
   come to ~57k words. Construction must not put them on the major
   heap, or every short run pays the collector for them: they fill in
   as a run touches them. *)
let test_pipeline_create_is_cheap () =
  let prog =
    let b = Asm.create () in
    Asm.halt (Asm.proc b "main");
    Asm.assemble b ~entry:"main"
  in
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  (* Empty the minor heap so nothing is promoted during [create]. *)
  Gc.minor ();
  let w0 = major_words () in
  let t = Pipeline.create prog in
  let w = major_words () -. w0 in
  ignore (Sys.opaque_identity t : Pipeline.t);
  if w > 4096. then
    Alcotest.failf "Pipeline.create allocated %.0f major-heap words (> 4096)" w

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

let mk_iq () = Iq.create ~size:8 ~bank_size:2 ~tags:224

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
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
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
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
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
  let q = Iq.create ~size:16 ~bank_size:4 ~tags:224 in
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
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
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
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  let p = Policy.abella ~window:10 () in
  (* Empty queue for many windows: the limit should shrink to its floor. *)
  for _ = 1 to 200 do
    Policy.end_cycle p q ~resize_ok:true ~throttled:false
  done;
  Alcotest.(check int) "shrunk to min" 8 (Policy.current_limit p q);
  Alcotest.(check int) "ring physically shrunk" 8 (Iq.active_size q)

let test_policy_abella_grows_under_pressure () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  let p = Policy.abella ~window:10 () in
  for _ = 1 to 200 do
    Policy.end_cycle p q ~resize_ok:true ~throttled:false
  done;
  (* Now sustained throttling: it should grow back. *)
  for _ = 1 to 50 do
    Policy.end_cycle p q ~resize_ok:true ~throttled:true
  done;
  Alcotest.(check bool) "grew" true (Policy.current_limit p q > 16)

(* The adaptive limit is exclusive: dispatch may fill the queue to
   [limit - 1] entries and take one more, never a [limit + 1]-th. The
   ring stays at 80 slots, so only the policy can refuse. *)
let test_policy_abella_limit_is_exclusive () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  let p = Policy.abella ~max_limit:16 () in
  for i = 0 to 14 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.(check bool) "allows at limit - 1" true (Policy.allows p q);
  ignore (Iq.dispatch q ~rob_idx:15 ~ops:[]);
  Alcotest.(check bool) "refuses at limit" false (Policy.allows p q)

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
  let stats = Pipeline.run (Pipeline.create prog) in
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
  let stats = Pipeline.run (Pipeline.create prog) in
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
  let s_pred = Pipeline.run (Pipeline.create (mk false)) in
  let s_rand = Pipeline.run (Pipeline.create (mk true)) in
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
  let s_small = Pipeline.run (Pipeline.create (mk 1 2000)) in
  let s_big = Pipeline.run (Pipeline.create (mk 97 2000)) in
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
  let stats = Pipeline.run (Pipeline.create prog) in
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
  let base = Pipeline.run (Pipeline.create (mk false)) in
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
  let a = Pipeline.run (Pipeline.create prog) in
  let b = Pipeline.run (Pipeline.create prog) in
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

(* --- event-driven IQ vs the ring-sweep reference --- *)

(* The queue once priced every broadcast and collected every cycle's
   select candidates by sweeping the ring. These are copies of those two
   loops, kept as the reference the event-driven queue must reproduce
   integer for integer. Both read the queue's raw slot arrays and
   mutate nothing: [ref_broadcast] returns the operands the sweep would
   wake (sorted) and its nonEmpty, gated and suppressed charges;
   [ref_select] the candidate slots oldest first and the slots the sweep
   examined. *)
let ref_broadcast (t : Iq.t) tags =
  let ntags = Array.length tags in
  let woken = ref [] in
  let nonempty = ref 0 and gated = ref 0 and suppressed = ref 0 in
  let pos = ref t.Iq.head in
  let remaining = ref t.Iq.count in
  let steps = ref 0 in
  let sup = t.Iq.suppress_pred in
  while !remaining > 0 && !steps < t.Iq.active_size do
    let s = !pos in
    if Bytes.get t.Iq.valid s <> '\000' then begin
      decr remaining;
      for o = 2 * s to (2 * s) + 1 do
        if Bytes.get t.Iq.op_present o <> '\000' then begin
          incr nonempty;
          if Bytes.get t.Iq.op_ready o = '\000' then begin
            if sup && Bytes.get t.Iq.op_pred o <> '\000' then incr suppressed
            else incr gated;
            let tag = t.Iq.op_tag.(o) in
            let hit = ref false in
            let k = ref 0 in
            while (not !hit) && !k < ntags do
              if tags.(!k) = tag then hit := true;
              incr k
            done;
            if !hit then woken := o :: !woken
          end
        end
      done
    end;
    incr steps;
    pos := (if s + 1 = t.Iq.active_size then 0 else s + 1)
  done;
  ( List.sort compare !woken,
    !nonempty * ntags,
    !gated * ntags,
    !suppressed * ntags )

let ref_select (iq : Iq.t) ~scan_limit =
  let cands = ref [] in
  let pos = ref iq.Iq.head in
  let remaining = ref iq.Iq.count in
  let steps = ref 0 in
  let active = iq.Iq.active_size in
  let bound = if scan_limit < active then scan_limit else active in
  while !remaining > 0 && !steps < bound do
    let s = !pos in
    if Bytes.get iq.Iq.valid s <> '\000' then begin
      decr remaining;
      let o = 2 * s in
      if
        (Bytes.get iq.Iq.op_present o = '\000'
        || Bytes.get iq.Iq.op_ready o <> '\000')
        && (Bytes.get iq.Iq.op_present (o + 1) = '\000'
           || Bytes.get iq.Iq.op_ready (o + 1) <> '\000')
      then cands := s :: !cands
    end;
    incr steps;
    pos := (if s + 1 = active then 0 else s + 1)
  done;
  (List.rev !cands, !steps)

type iq_op =
  | Op_dispatch of int * (int * bool * bool) * (int * bool * bool)
      (* source count, then (tag, ready, predicted-ready) per operand *)
  | Op_broadcast of int list
  | Op_issue of int (* the k-th valid entry, oldest first, ready or not *)
  | Op_squash of int (* the k youngest dispatches, as a wrong-path squash *)
  | Op_resize of int

let iq_prop_tags = 8

let pp_iq_op ppf = function
  | Op_dispatch (n, (t0, r0, p0), (t1, r1, p1)) ->
    Fmt.pf ppf "dispatch %d (%d,%b,%b) (%d,%b,%b)" n t0 r0 p0 t1 r1 p1
  | Op_broadcast tags -> Fmt.pf ppf "broadcast %a" Fmt.(Dump.list int) tags
  | Op_issue k -> Fmt.pf ppf "issue #%d" k
  | Op_squash k -> Fmt.pf ppf "squash %d" k
  | Op_resize n -> Fmt.pf ppf "resize %d" n

let gen_iq_op =
  let open QCheck.Gen in
  let tag = int_bound (iq_prop_tags - 1) in
  let operand =
    triple tag (frequency [ (1, return true); (2, return false) ]) bool
  in
  frequency
    [
      ( 6,
        map3 (fun n a b -> Op_dispatch (n, a, b)) (int_bound 2) operand operand
      );
      (3, map (fun l -> Op_broadcast l) (list_size (int_range 1 3) tag));
      (3, map (fun k -> Op_issue k) (int_bound 15));
      (1, map (fun k -> Op_squash k) (int_range 1 6));
      (1, map (fun n -> Op_resize n) (int_range 1 16));
    ]

(* Squash the [k] youngest dispatches the way [Pipeline] squashes a
   wrong-path suffix: free the still-valid slots youngest first, rewind
   [tail] to the first squashed slot and repair [head]/[new_head]. *)
let squash_youngest (q : Iq.t) k =
  let active = q.Iq.active_size in
  let s0 = (q.Iq.tail - k + active) mod active in
  let new_head_in =
    q.Iq.new_span > 0 && (q.Iq.new_head - s0 + active) mod active < k
  in
  for i = 1 to k do
    let s = (q.Iq.tail - i + active) mod active in
    if Iq.slot_valid q s then Iq.squash_slot q s
  done;
  q.Iq.tail <- s0;
  if q.Iq.count = 0 then begin
    q.Iq.head <- s0;
    q.Iq.new_head <- s0;
    q.Iq.new_span <- 0
  end
  else if q.Iq.new_span = 0 then q.Iq.new_head <- s0
  else if new_head_in then begin
    q.Iq.new_head <- s0;
    q.Iq.new_span <- 0
  end
  else q.Iq.new_span <- (s0 - q.Iq.new_head + active) mod active

let qcheck_iq_matches_sweep =
  QCheck.Test.make ~count:300
    ~name:"event-driven IQ matches the ring-sweep reference"
    QCheck.(
      pair bool
        (make
           ~print:(Fmt.str "%a" Fmt.(Dump.list pp_iq_op))
           QCheck.Gen.(list_size (int_range 1 80) gen_iq_op)))
    (fun (suppress, ops) ->
      let q = Iq.create ~size:16 ~bank_size:4 ~tags:iq_prop_tags in
      q.Iq.suppress_pred <- suppress;
      let cands = Array.make 16 0 in
      (* dispatches since the ring last changed shape: the youngest
         [since] ones occupy the slots just below [tail] *)
      let since = ref 0 in
      let check_select step =
        List.iter
          (fun scan_limit ->
            let want, want_steps = ref_select q ~scan_limit in
            let n = Iq.select_into q ~bound:scan_limit cands in
            let got = Array.to_list (Array.sub cands 0 n) in
            if got <> want || q.Iq.scanned <> want_steps then
              QCheck.Test.fail_reportf
                "step %d, bound %d: select %a scanning %d, reference %a \
                 scanning %d"
                step scan_limit
                Fmt.(Dump.list int) got q.Iq.scanned
                Fmt.(Dump.list int) want want_steps)
          [ 1; 4; max_int ]
      in
      List.iteri
        (fun step op ->
          (match op with
          | Op_dispatch (nsrc, (tag0, ready0, pred0), (tag1, ready1, pred1)) ->
            if not (Iq.is_full q) then begin
              ignore
                (Iq.dispatch_flat q ~rob_idx:step ~nsrc ~tag0 ~ready0 ~pred0
                   ~tag1 ~ready1 ~pred1);
              incr since
            end
          | Op_broadcast tags ->
            let tags = Array.of_list tags in
            let woken_ref, nonempty, gated, suppressed = ref_broadcast q tags in
            let before = Bytes.copy q.Iq.op_ready in
            let n0 = q.Iq.wakeups_naive and e0 = q.Iq.wakeups_nonempty in
            let g0 = q.Iq.wakeups_gated and s0 = q.Iq.wakeups_suppressed in
            let woken = Iq.broadcast_into q tags (Array.length tags) in
            let flipped = ref [] in
            Bytes.iteri
              (fun o c ->
                if c <> '\000' && Bytes.get before o = '\000' then
                  flipped := o :: !flipped)
              q.Iq.op_ready;
            if
              woken <> List.length woken_ref
              || List.sort compare !flipped <> woken_ref
              || q.Iq.wakeups_naive - n0 <> 2 * 16 * Array.length tags
              || q.Iq.wakeups_nonempty - e0 <> nonempty
              || q.Iq.wakeups_gated - g0 <> gated
              || q.Iq.wakeups_suppressed - s0 <> suppressed
            then
              QCheck.Test.fail_reportf
                "step %d: woke %d (nonempty %d gated %d suppressed %d), \
                 reference %d (%d %d %d)"
                step woken (q.Iq.wakeups_nonempty - e0)
                (q.Iq.wakeups_gated - g0)
                (q.Iq.wakeups_suppressed - s0)
                (List.length woken_ref) nonempty gated suppressed
          | Op_issue k ->
            if Iq.occupancy q > 0 then begin
              let k = k mod Iq.occupancy q in
              let slots = Iq.fold_oldest_first q (fun acc s -> s :: acc) [] in
              Iq.issue q (List.nth (List.rev slots) k)
            end
          | Op_squash k ->
            let k = min k (min !since q.Iq.active_size) in
            if k > 0 then begin
              squash_youngest q k;
              since := !since - k
            end
          | Op_resize n -> if Iq.resize q n then since := 0);
          check_select step)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "cold cache misses on line -1" `Quick
      test_cache_cold_negative_line_misses;
    Alcotest.test_case "negative byte is not on line 0" `Quick
      test_cache_negative_byte_not_line_zero;
    Alcotest.test_case "cold tlb misses on page -1" `Quick
      test_tlb_cold_negative_page_misses;
    Alcotest.test_case "chunked rows read the template" `Quick
      test_chunked_untouched_rows_read_template;
    Alcotest.test_case "chunked rows are independent" `Quick
      test_chunked_rows_independent;
    Alcotest.test_case "pipeline create is cheap" `Quick
      test_pipeline_create_is_cheap;
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
    QCheck_alcotest.to_alcotest qcheck_iq_matches_sweep;
    Alcotest.test_case "software policy limits" `Quick
      test_policy_software_limits;
    Alcotest.test_case "unlimited blocks only when full" `Quick
      test_policy_unlimited_only_blocks_when_full;
    Alcotest.test_case "abella shrinks when idle" `Quick
      test_policy_abella_shrinks_when_idle;
    Alcotest.test_case "abella grows under pressure" `Quick
      test_policy_abella_grows_under_pressure;
    Alcotest.test_case "abella limit is exclusive" `Quick
      test_policy_abella_limit_is_exclusive;
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
