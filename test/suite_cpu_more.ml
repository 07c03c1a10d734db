(* Second round of CPU tests: ring resizing, in-flight cache lines,
   frontend details (BTB bubbles, RAS depth, decode latency), dispatch
   stall taxonomy, and IQ corner cases. *)

open Sdiq_isa
module Cache = Sdiq_cpu.Cache
module Branch_pred = Sdiq_cpu.Branch_pred
module Iq = Sdiq_cpu.Iq
module Policy = Sdiq_cpu.Policy
module Pipeline = Sdiq_cpu.Pipeline
module Config = Sdiq_cpu.Config
module Stats = Sdiq_cpu.Stats

let r = Reg.int

(* --- ring resizing --- *)

let test_resize_empty_queue_immediate () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  Alcotest.(check bool) "shrink applies" true (Iq.resize q 16);
  Alcotest.(check int) "active" 16 (Iq.active_size q);
  Alcotest.(check bool) "grow applies" true (Iq.resize q 80);
  Alcotest.(check int) "active" 80 (Iq.active_size q)

let test_resize_rounds_to_banks () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  ignore (Iq.resize q 20);
  Alcotest.(check int) "rounded down to bank multiple" 16 (Iq.active_size q)

let test_resize_clamps () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  ignore (Iq.resize q 0);
  Alcotest.(check int) "at least one bank" 8 (Iq.active_size q);
  ignore (Iq.resize q 1000);
  Alcotest.(check int) "at most full size" 80 (Iq.active_size q)

let test_resize_shrink_deferred_when_occupied () =
  let q = Iq.create ~size:16 ~bank_size:4 ~tags:224 in
  for i = 0 to 9 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  (* Entries live in slots 0..9: slot 8/9 block a shrink to 8. *)
  Alcotest.(check bool) "shrink refused" false (Iq.resize q 8);
  Alcotest.(check int) "still 16" 16 (Iq.active_size q);
  for s = 0 to 9 do
    Iq.issue q s
  done;
  Alcotest.(check bool) "shrink applies once drained" true (Iq.resize q 8)

let test_resized_ring_wraps_within_active () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  ignore (Iq.resize q 8);
  for i = 0 to 7 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.(check bool) "full at 8" true (Iq.is_full q);
  Iq.issue q 0;
  let s = Iq.dispatch q ~rob_idx:8 ~ops:[] in
  Alcotest.(check int) "wrapped inside the small ring" 0 s

let test_grow_preserves_wrapped_order () =
  let q = Iq.create ~size:80 ~bank_size:8 ~tags:224 in
  ignore (Iq.resize q 8);
  for i = 0 to 7 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Iq.issue q 0;
  Iq.issue q 1;
  ignore (Iq.dispatch q ~rob_idx:8 ~ops:[]); (* slot 0: wrapped *)
  Alcotest.(check bool) "grow applies even when wrapped" true (Iq.resize q 80);
  (* Oldest-first order must still be 2,3,...,7,8. *)
  let order =
    List.rev
      (Iq.fold_oldest_first q (fun acc s -> Iq.slot_rob_idx q s :: acc) [])
  in
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 4; 5; 6; 7; 8 ] order

(* --- in-flight cache lines --- *)

let test_cache_inflight_merge () =
  let c = Cache.create ~sets:16 ~ways:2 ~line:32 in
  (match Cache.probe c ~now:100 64 with
  | Cache.Miss -> Cache.set_fill c 64 150
  | _ -> Alcotest.fail "expected miss");
  (* Same line, 20 cycles later: still 30 cycles out. *)
  (match Cache.probe c ~now:120 68 with
  | Cache.Inflight remaining ->
    Alcotest.(check int) "remaining until fill" 30 remaining
  | _ -> Alcotest.fail "expected inflight");
  (* After the fill completes: a settled hit. *)
  match Cache.probe c ~now:151 64 with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "expected hit"

let test_cache_inflight_counts_as_miss_stat () =
  let c = Cache.create ~sets:16 ~ways:2 ~line:32 in
  ignore (Cache.probe c ~now:0 0);
  Cache.set_fill c 0 100;
  ignore (Cache.probe c ~now:10 0);
  Alcotest.(check int) "two misses recorded" 2 (Cache.misses c)

(* Dependent pointer chain: with in-flight tracking, a chain of loads to
   the same line cannot ride its own fill. *)
let test_pointer_chain_serialises () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 400;
  Asm.li p (r 2) 0x10_0000;
  Asm.label p "walk";
  Asm.load p (r 2) (r 2) 0;
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "walk";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let t = Pipeline.create prog in
  (* A long random chain over 1MB: every step a fresh line. *)
  let rng = Sdiq_util.Rng.create 11 in
  let first =
    Sdiq_workloads.Gen.fill_chain rng t.Pipeline.exec ~base:0x10_0000
      ~len:8192 ~stride:8
  in
  Exec.poke t.Pipeline.exec 0x10_0000 (Exec.peek t.Pipeline.exec first);
  let stats = Pipeline.run t in
  (* Each iteration pays at least an L2 access: > 8 cycles per step. *)
  Alcotest.(check bool)
    (Printf.sprintf "serialised chain is slow (%d cycles)" stats.Stats.cycles)
    true
    (stats.Stats.cycles > 400 * 8)

(* --- frontend --- *)

let test_btb_bubbles_counted () =
  (* Unconditional jumps need the BTB for their target: the first
     encounter of each jump bubbles, later ones hit. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 50;
  Asm.label p "loop";
  Asm.addi p (r 1) (r 1) (-1);
  Asm.jmp p "back";
  Asm.label p "back";
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let stats = Pipeline.run (Pipeline.create prog) in
  Alcotest.(check bool) "the jump's first encounter bubbles" true
    (stats.Stats.btb_bubbles >= 1);
  Alcotest.(check bool) "but trained thereafter" true
    (stats.Stats.btb_bubbles < 25)

let test_deep_recursion_exceeds_ras () =
  (* Recursion depth 40 > 16-entry RAS: some returns mispredict. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 40;
  Asm.call p "rec";
  Asm.halt p;
  let q = Asm.proc b "rec" in
  Asm.addi q (r 1) (r 1) (-1);
  Asm.beq q (r 1) Reg.zero "base";
  Asm.call q "rec";
  Asm.label q "base";
  Asm.addi q (r 2) (r 2) 1;
  Asm.ret q;
  let prog = Asm.assemble b ~entry:"main" in
  let stats = Pipeline.run (Pipeline.create prog) in
  Alcotest.(check bool) "RAS overflow causes mispredicts" true
    (stats.Stats.mispredicts > 10)

let test_shallow_recursion_fits_ras () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 8;
  Asm.call p "rec";
  Asm.halt p;
  let q = Asm.proc b "rec" in
  Asm.addi q (r 1) (r 1) (-1);
  Asm.beq q (r 1) Reg.zero "base";
  Asm.call q "rec";
  Asm.label q "base";
  Asm.addi q (r 2) (r 2) 1;
  Asm.ret q;
  let prog = Asm.assemble b ~entry:"main" in
  let stats = Pipeline.run (Pipeline.create prog) in
  Alcotest.(check bool) "depth 8 fits the 16-entry RAS" true
    (stats.Stats.mispredicts <= 2)

let test_decode_depth_delays_first_commit () =
  let mk depth =
    let b = Asm.create () in
    let p = Asm.proc b "main" in
    Asm.li p (r 1) 1;
    Asm.halt p;
    let prog = Asm.assemble b ~entry:"main" in
    let config = { Config.default with Config.decode_depth = depth } in
    Pipeline.run (Pipeline.create ~config prog)
  in
  let shallow = mk 1 and deep = mk 6 in
  Alcotest.(check bool) "deeper decode takes longer" true
    (deep.Stats.cycles > shallow.Stats.cycles)

(* --- dispatch stall taxonomy --- *)

let test_rob_full_stall_counted () =
  (* A 50-cycle-latency load at the head with plenty of independent work
     behind it: the ROB (128) fills before the IQ does anything wrong. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 200;
  Asm.label p "loop";
  Asm.load p (r 2) (r 9) 0x400000; (* cold: misses to memory *)
  for i = 3 to 7 do
    Asm.addi p (r i) (r i) 1
  done;
  Asm.addi p (r 9) (r 9) 4096;
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let stats = Pipeline.run (Pipeline.create prog) in
  Alcotest.(check bool) "some structural stalls recorded" true
    (stats.Stats.dispatch_stall_rob_full + stats.Stats.dispatch_stall_no_reg
     + stats.Stats.dispatch_stall_iq_full
     > 0)

let test_policy_stall_attribution () =
  (* Under a tight software window the stall bucket must be 'policy'. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.iqset p 2;
  Asm.li p (r 1) 500;
  Asm.label p "loop";
  Asm.mul p (r 2) (r 1) (r 1);
  Asm.mul p (r 3) (r 2) (r 1);
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let stats =
    Pipeline.run (Pipeline.create ~policy:(Policy.software ()) prog)
  in
  Alcotest.(check bool) "policy stalls dominate" true
    (stats.Stats.dispatch_stall_policy > stats.Stats.dispatch_stall_iq_full)

(* --- iq corner cases --- *)

let test_iq_issue_empty_slot_rejected () =
  let q = Iq.create ~size:8 ~bank_size:2 ~tags:224 in
  Alcotest.check_raises "issue on empty slot"
    (Invalid_argument "Iq.issue: empty slot") (fun () -> Iq.issue q 3)

let test_iq_dispatch_full_rejected () =
  let q = Iq.create ~size:4 ~bank_size:2 ~tags:224 in
  for i = 0 to 3 do
    ignore (Iq.dispatch q ~rob_idx:i ~ops:[])
  done;
  Alcotest.check_raises "dispatch on full queue"
    (Invalid_argument "Iq.dispatch: full") (fun () ->
      ignore (Iq.dispatch q ~rob_idx:9 ~ops:[]))

let test_iq_three_source_ops_truncated () =
  (* The ISA has at most two register sources; the queue must also cope
     with an over-long ops list by keeping the first two. *)
  let q = Iq.create ~size:8 ~bank_size:2 ~tags:224 in
  let s = Iq.dispatch q ~rob_idx:0 ~ops:[ (1, false); (2, false); (3, false) ] in
  Alcotest.(check int) "two CAM writes" 2 q.Iq.dispatch_cam_writes;
  Alcotest.(check bool) "third operand dropped" true
    (Iq.op_tag q s 0 <> 3 && Iq.op_tag q s 1 <> 3)

let test_iq_broadcast_empty_tag_list () =
  let q = Iq.create ~size:8 ~bank_size:2 ~tags:224 in
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[ (5, false) ]);
  Alcotest.(check int) "no-op broadcast" 0 (Iq.broadcast_many q []);
  Alcotest.(check int) "no comparisons" 0 q.Iq.wakeups_gated

let test_software_policy_region_pc_dedup () =
  let q = Iq.create ~size:16 ~bank_size:4 ~tags:224 in
  let p = Policy.software () in
  Policy.on_annotation p q ~pc:100 ~value:4;
  ignore (Iq.dispatch q ~rob_idx:0 ~ops:[]);
  ignore (Iq.dispatch q ~rob_idx:1 ~ops:[]);
  Alcotest.(check int) "span 2" 2 (Iq.new_region_span q);
  (* Same annotation pc again (a loop iteration): region must NOT reset. *)
  Policy.on_annotation p q ~pc:100 ~value:4;
  Alcotest.(check int) "span preserved" 2 (Iq.new_region_span q);
  (* A different pc starts a fresh region. *)
  Policy.on_annotation p q ~pc:200 ~value:6;
  Alcotest.(check int) "span reset" 0 (Iq.new_region_span q)

let test_iqset_tagged_equivalence_end_state () =
  (* The same program annotated by NOOPs and by tags must compute the
     same result and reduce wakeups comparably. *)
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 400;
  Asm.label p "loop";
  for i = 2 to 6 do
    Asm.addi p (r i) (r i) 1
  done;
  Asm.addi p (r 1) (r 1) (-1);
  Asm.bne p (r 1) Reg.zero "loop";
  Asm.store p Reg.zero (r 2) 0;
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let noop_prog, _ = Sdiq_core.Annotate.(apply Noop) prog in
  let tag_prog, _ = Sdiq_core.Annotate.(apply Tagged) prog in
  let run pr =
    let t = Pipeline.create ~policy:(Policy.software ()) pr in
    let s = Pipeline.run t in
    (Exec.peek t.Pipeline.exec 0, s)
  in
  let v1, s1 = run noop_prog in
  let v2, s2 = run tag_prog in
  Alcotest.(check int) "same result" v1 v2;
  let close a b =
    let fa = float_of_int a and fb = float_of_int b in
    abs_float (fa -. fb) /. (max fa fb +. 1.) < 0.25
  in
  Alcotest.(check bool) "comparable wakeups" true
    (close s1.Stats.iq_wakeups_gated s2.Stats.iq_wakeups_gated)

let suite =
  [
    Alcotest.test_case "resize: empty queue immediate" `Quick
      test_resize_empty_queue_immediate;
    Alcotest.test_case "resize: rounds to banks" `Quick
      test_resize_rounds_to_banks;
    Alcotest.test_case "resize: clamps" `Quick test_resize_clamps;
    Alcotest.test_case "resize: shrink deferred when occupied" `Quick
      test_resize_shrink_deferred_when_occupied;
    Alcotest.test_case "resized ring wraps within active" `Quick
      test_resized_ring_wraps_within_active;
    Alcotest.test_case "grow preserves wrapped order" `Quick
      test_grow_preserves_wrapped_order;
    Alcotest.test_case "cache inflight merge" `Quick test_cache_inflight_merge;
    Alcotest.test_case "cache inflight miss stat" `Quick
      test_cache_inflight_counts_as_miss_stat;
    Alcotest.test_case "pointer chain serialises" `Quick
      test_pointer_chain_serialises;
    Alcotest.test_case "btb bubbles counted" `Quick test_btb_bubbles_counted;
    Alcotest.test_case "deep recursion exceeds RAS" `Quick
      test_deep_recursion_exceeds_ras;
    Alcotest.test_case "shallow recursion fits RAS" `Quick
      test_shallow_recursion_fits_ras;
    Alcotest.test_case "decode depth delays first commit" `Quick
      test_decode_depth_delays_first_commit;
    Alcotest.test_case "structural stalls counted" `Quick
      test_rob_full_stall_counted;
    Alcotest.test_case "policy stall attribution" `Quick
      test_policy_stall_attribution;
    Alcotest.test_case "issue empty slot rejected" `Quick
      test_iq_issue_empty_slot_rejected;
    Alcotest.test_case "dispatch full rejected" `Quick
      test_iq_dispatch_full_rejected;
    Alcotest.test_case "over-long ops truncated" `Quick
      test_iq_three_source_ops_truncated;
    Alcotest.test_case "broadcast empty tag list" `Quick
      test_iq_broadcast_empty_tag_list;
    Alcotest.test_case "region pc dedup" `Quick
      test_software_policy_region_pc_dedup;
    Alcotest.test_case "iqset/tag equivalence" `Quick
      test_iqset_tagged_equivalence_end_state;
  ]
