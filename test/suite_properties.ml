(* Property-based tests (qcheck): random programs through the whole stack.

   The generator produces small but structurally varied programs —
   straight-line arithmetic, memory traffic, a counted loop, a helper
   call — and the properties assert the invariants the paper's technique
   rests on: annotation never changes program semantics, the pipeline
   agrees with the functional executor under every policy, the wakeup
   accounting is ordered, and the analysis outputs are in range. *)

open Sdiq_isa

(* --- program generator -------------------------------------------------- *)

type op_kind =
  | K_addi of int * int * int (* dst, src, imm *)
  | K_add of int * int * int
  | K_mul of int * int * int
  | K_xor of int * int * int
  | K_load of int * int * int (* dst, base, offset *)
  | K_store of int * int * int (* base, value, offset *)

let gen_kind =
  let open QCheck.Gen in
  let reg = int_range 1 8 in
  let reg0 = int_range 0 8 in
  frequency
    [
      (4, map3 (fun d s i -> K_addi (d, s, i)) reg reg0 (int_range (-20) 20));
      (3, map3 (fun d a b -> K_add (d, a, b)) reg reg0 reg0);
      (1, map3 (fun d a b -> K_mul (d, a, b)) reg reg0 reg0);
      (2, map3 (fun d a b -> K_xor (d, a, b)) reg reg0 reg0);
      (2, map3 (fun d b o -> K_load (d, b, o * 4)) reg reg (int_range 0 63));
      (1, map3 (fun b v o -> K_store (b, v, o * 4)) reg reg (int_range 0 63));
    ]

type prog_desc = {
  prologue : op_kind list;
  loop_body : op_kind list;
  loop_count : int;
  helper_body : op_kind list;
  call_helper : bool;
}

let gen_desc =
  let open QCheck.Gen in
  let body n = list_size (int_range 1 n) gen_kind in
  map
    (fun (prologue, loop_body, loop_count, helper_body, call_helper) ->
      { prologue; loop_body; loop_count; helper_body; call_helper })
    (tup5 (body 12) (body 10) (int_range 1 25) (body 6) bool)

let emit p kind =
  let r = Reg.int in
  match kind with
  | K_addi (d, s, i) -> Asm.addi p (r d) (r s) i
  | K_add (d, a, b) -> Asm.add p (r d) (r a) (r b)
  | K_mul (d, a, b) -> Asm.mul p (r d) (r a) (r b)
  | K_xor (d, a, b) -> Asm.xor p (r d) (r a) (r b)
  | K_load (d, b, o) ->
    (* Keep addresses positive and bounded: mask the base first. *)
    Asm.andi p (r b) (r b) 4095;
    Asm.load p (r d) (r b) o
  | K_store (b, v, o) ->
    Asm.andi p (r b) (r b) 4095;
    Asm.store p (r b) (r v) o

let build_program desc =
  let r = Reg.int in
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  (* Seed registers deterministically so arithmetic has material. *)
  for i = 1 to 8 do
    Asm.li p (r i) (i * 37)
  done;
  List.iter (emit p) desc.prologue;
  Asm.li p (r 9) desc.loop_count;
  Asm.label p "loop";
  List.iter (emit p) desc.loop_body;
  if desc.call_helper then Asm.call p "helper";
  Asm.addi p (r 9) (r 9) (-1);
  Asm.bne p (r 9) Reg.zero "loop";
  (* Publish the architectural state. *)
  for i = 1 to 8 do
    Asm.store p Reg.zero (r i) (8000 + (i * 4))
  done;
  Asm.halt p;
  let q = Asm.proc b "helper" in
  List.iter (emit q) desc.helper_body;
  Asm.ret q;
  Asm.assemble b ~entry:"main"

let arbitrary_prog =
  QCheck.make ~print:(fun d ->
      Printf.sprintf "prologue=%d loop=%dx%d helper=%b"
        (List.length d.prologue) (List.length d.loop_body) d.loop_count
        d.call_helper)
    gen_desc

(* Final architectural fingerprint of a functional run. *)
let functional_result prog =
  let st = Exec.create prog in
  let steps = Exec.run ~max_steps:500_000 st in
  let regs = List.init 8 (fun i -> Exec.peek st (8000 + ((i + 1) * 4))) in
  (steps, regs)

let pipeline_result ?policy prog =
  let t = Sdiq_cpu.Pipeline.create ?policy prog in
  let stats = Sdiq_cpu.Pipeline.run ~max_cycles:3_000_000 t in
  let regs =
    List.init 8 (fun i -> Exec.peek t.Sdiq_cpu.Pipeline.exec (8000 + ((i + 1) * 4)))
  in
  (stats, regs)

(* --- properties --------------------------------------------------------- *)

let count = 40

let prop_annotation_preserves_semantics =
  QCheck.Test.make ~count ~name:"noop annotation preserves semantics"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let annotated, _ = Sdiq_core.Annotate.(apply Noop) prog in
      let _, r1 = functional_result prog in
      let _, r2 = functional_result annotated in
      r1 = r2)

let prop_tagging_preserves_semantics =
  QCheck.Test.make ~count ~name:"tagging preserves semantics" arbitrary_prog
    (fun desc ->
      let prog = build_program desc in
      let tagged, _ = Sdiq_core.Annotate.(apply Tagged) prog in
      let _, r1 = functional_result prog in
      let _, r2 = functional_result tagged in
      r1 = r2)

let prop_pipeline_matches_functional =
  QCheck.Test.make ~count ~name:"pipeline matches functional execution"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let _, expected = functional_result prog in
      let _, got = pipeline_result prog in
      got = expected)

let prop_software_policy_correct_and_live =
  QCheck.Test.make ~count ~name:"software policy: same result, no deadlock"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let annotated, _ = Sdiq_core.Annotate.(apply Noop) prog in
      let _, expected = functional_result prog in
      let _, got =
        pipeline_result ~policy:(Sdiq_cpu.Policy.software ()) annotated
      in
      got = expected)

let prop_abella_policy_correct_and_live =
  QCheck.Test.make ~count ~name:"abella policy: same result, no deadlock"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let _, expected = functional_result prog in
      let _, got = pipeline_result ~policy:(Sdiq_cpu.Policy.abella ()) prog in
      got = expected)

let prop_analysis_values_in_range =
  QCheck.Test.make ~count ~name:"annotation values within [2, 80]"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let anns = Sdiq_core.Procedure.analyze_program prog in
      anns <> []
      && List.for_all
           (fun (a : Sdiq_core.Procedure.annotation) ->
             a.value >= 2 && a.value <= 80)
           anns)

let prop_wakeup_ordering =
  QCheck.Test.make ~count ~name:"gated <= nonEmpty <= naive wakeups"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let stats, _ = pipeline_result prog in
      stats.Sdiq_cpu.Stats.iq_wakeups_gated
      <= stats.Sdiq_cpu.Stats.iq_wakeups_nonempty
      && stats.Sdiq_cpu.Stats.iq_wakeups_nonempty
         <= stats.Sdiq_cpu.Stats.iq_wakeups_naive)

let prop_software_reduces_or_preserves_wakeups =
  QCheck.Test.make ~count:25
    ~name:"software technique never increases gated wakeups materially"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let annotated, _ = Sdiq_core.Annotate.(apply Tagged) prog in
      let base, _ = pipeline_result prog in
      let tech, _ =
        pipeline_result ~policy:(Sdiq_cpu.Policy.software ()) annotated
      in
      (* Identical committed work; the window can only remove waiting
         operands from the queue. Tiny timing wobbles allowed. *)
      float_of_int tech.Sdiq_cpu.Stats.iq_wakeups_gated
      <= (1.05 *. float_of_int base.Sdiq_cpu.Stats.iq_wakeups_gated) +. 200.)

let prop_strip_insert_roundtrip =
  QCheck.Test.make ~count ~name:"strip (insert_iqsets p) ~ p" arbitrary_prog
    (fun desc ->
      let prog = build_program desc in
      let annotated, _ = Sdiq_core.Annotate.(apply Noop) prog in
      let stripped = Rewrite.strip annotated in
      Prog.length stripped = Prog.length prog
      && Array.for_all2
           (fun (a : Instr.t) (b : Instr.t) ->
             a.op = b.op && a.imm = b.imm && a.target = b.target)
           stripped.Prog.code prog.Prog.code)

let prop_pseudo_iq_respects_deps =
  QCheck.Test.make ~count ~name:"pseudo-IQ schedule respects dependences"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let proc = Option.get (Prog.find_proc prog "main") in
      let cfg = Sdiq_cfg.Cfg.build prog proc in
      let blk = Sdiq_cfg.Cfg.entry_block cfg in
      let instrs = Array.of_list (Sdiq_cfg.Cfg.instrs cfg blk) in
      let res = Sdiq_core.Pseudo_iq.analyze instrs in
      let g = Sdiq_ddg.Ddg.build instrs in
      res.Sdiq_core.Pseudo_iq.need >= 1
      && res.Sdiq_core.Pseudo_iq.need <= Array.length instrs
      && List.for_all
           (fun (e : Sdiq_ddg.Ddg.edge) ->
             res.Sdiq_core.Pseudo_iq.issue_cycle.(e.dst)
             > res.Sdiq_core.Pseudo_iq.issue_cycle.(e.src))
           (Sdiq_ddg.Ddg.edges g))

let prop_loop_schedule_sane =
  QCheck.Test.make ~count ~name:"loop schedule: II >= 1, need in range"
    arbitrary_prog (fun desc ->
      let body =
        build_program desc |> fun prog ->
        let proc = Option.get (Prog.find_proc prog "main") in
        let cfg = Sdiq_cfg.Cfg.build prog proc in
        Array.of_list
          (Sdiq_cfg.Cfg.instrs cfg (Sdiq_cfg.Cfg.entry_block cfg))
      in
      let g = Sdiq_ddg.Ddg.of_loop_body body in
      let sch = Sdiq_ddg.Cds.schedule g in
      let need = Sdiq_ddg.Cds.iq_need ~cap:80 g sch in
      sch.Sdiq_ddg.Cds.ii >= 1
      && need >= 1 && need <= 80
      && Array.for_all (fun s -> s >= 0) sch.Sdiq_ddg.Cds.start)

(* --- statistics conservation --------------------------------------------- *)

(* A dynamic-instruction record for synthetic events; the statistics
   fold never looks inside it, so one canned instruction serves. *)
let dummy_dyn =
  let b = Asm.create () in
  let p = Asm.proc b "d" in
  Asm.addi p (Reg.int 1) (Reg.int 1) 1;
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"d" in
  {
    Exec.sn = 0;
    pc = 0;
    instr = prog.Prog.code.(0);
    next_pc = 1;
    taken = false;
    addr = -1;
  }

(* Arbitrary events spanning every constructor the statistics fold
   consumes — including the wrong-path variants of fetch, dispatch and
   issue, squashes and TLB misses. *)
let gen_event =
  let open QCheck.Gen in
  let module Ev = Sdiq_events.Event in
  let small = int_range 0 9 in
  let outcome =
    oneof
      [
        return Ev.Sequential;
        (let* taken = bool and* mispredicted = bool and* btb_bubble = bool in
         return (Ev.Cond_branch { taken; mispredicted; btb_bubble }));
        map (fun btb_bubble -> Ev.Jump { btb_bubble }) bool;
        map (fun btb_bubble -> Ev.Call { btb_bubble }) bool;
        map (fun mispredicted -> Ev.Return { mispredicted }) bool;
      ]
  in
  oneof
    [
      (let* outcome = outcome and* wp = bool in
       return (Ev.Fetch { dyn = dummy_dyn; outcome; wp }));
      (let* delivery = oneofl [ Ev.Noop_slot; Ev.Tag ] in
       return (Ev.Annotation { pc = 0; value = 8; delivery }));
      (let* kind = oneofl [ Ev.Plain; Ev.Load; Ev.Store ]
       and* cam_writes = int_range 0 2
       and* wp = bool in
       return
         (Ev.Dispatch
            { dyn = dummy_dyn; kind; iq_slot = 0; rob_idx = 0; cam_writes; wp }));
      map
        (fun r -> Ev.Dispatch_stall r)
        (oneofl
           [ Ev.Policy_limit; Ev.Iq_full; Ev.Rob_full; Ev.No_reg; Ev.Lsq_full ]);
      (let* tags = small and* woken = small and* naive = small in
       let* nonempty = small and* gated = small and* suppressed = small in
       return (Ev.Wakeup { tags; woken; naive; nonempty; gated; suppressed }));
      return (Ev.Select { rob_idx = 0; iq_slot = 0 });
      (let* entries = small in
       return (Ev.Select_scan { entries }));
      (let* store_forward = bool and* wp = bool in
       return (Ev.Issue { dyn = dummy_dyn; latency = 1; store_forward; wp }));
      return (Ev.Writeback { dyn = dummy_dyn; rob_idx = 0 });
      (let* ints = int_range 0 2 and* fps = int_range 0 2 in
       return (Ev.Rf_read { ints; fps }));
      (let* file = oneofl [ Ev.Int_rf; Ev.Fp_rf ] in
       return (Ev.Rf_write { file; phys = 0 }));
      return (Ev.Commit { dyn = dummy_dyn });
      (let* squashed = small in
       return (Ev.Squash { dyn = dummy_dyn; squashed }));
      (let* level = oneofl [ Ev.Il1; Ev.Dl1; Ev.L2 ] in
       return (Ev.Cache_miss { level; addr = 64 }));
      (let* tlb = oneofl [ Ev.Itlb; Ev.Dtlb ] in
       return (Ev.Tlb_miss { tlb; addr = 64 }));
      return (Ev.Resize { before = 80; after = 72 });
      return (Ev.Bank_gated { unit_ = Ev.Iq_bank; bank = 0 });
      return (Ev.Bank_ungated { unit_ = Ev.Int_rf_bank; bank = 0 });
      (let* cycle = small and* throttled = bool in
       let* iq_occupancy = small and* iq_banks_on = small in
       let* int_rf_banks_on = small
       and* int_rf_live = small
       and* fp_rf_banks_on = small in
       return
         (Ev.Cycle_end
            {
              cycle;
              throttled;
              iq_occupancy;
              iq_banks_on;
              int_rf_banks_on;
              int_rf_live;
              fp_rf_banks_on;
            }));
    ]

let arbitrary_event_streams =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "streams of %d and %d events" (List.length a)
        (List.length b))
    QCheck.Gen.(pair (list_size (int_range 0 60) gen_event)
                  (list_size (int_range 0 60) gen_event))

(* [Stats.add], [diff] and [to_fields] all walk one field table, so
   adding two absorbed buckets must be the field-wise sum and
   subtracting one back must recover the other exactly. An entry whose
   getter and setter name different fields breaks this within a few
   random streams; an entry missing from the table altogether is caught
   by [test_stats_field_table_covers_record] below. *)
let prop_stats_add_conservation =
  let module Stats = Sdiq_cpu.Stats in
  QCheck.Test.make ~count:100
    ~name:"Stats.add/diff conserve every field over random event streams"
    arbitrary_event_streams
    (fun (e1, e2) ->
      let absorb_all es =
        let s = Stats.create () in
        List.iter (Stats.absorb s) es;
        s
      in
      let a = absorb_all e1 and b = absorb_all e2 in
      let sum = Stats.copy a in
      Stats.add sum b;
      List.for_all2
        (fun (ka, va) ((kb, vb), (kc, vc)) ->
          ka = kb && ka = kc && va = vb + vc)
        (Stats.to_fields sum)
        (List.combine (Stats.to_fields a) (Stats.to_fields b))
      && Stats.equal (Stats.diff sum b) a)

(* The field table must list every record field: one left out would be
   dropped silently by [add], [diff] and [to_fields] together (and so
   by [equal]). All of [Stats.t]'s fields are immediate ints, so the
   record's block size is its field count. *)
let test_stats_field_table_covers_record () =
  let s = Sdiq_cpu.Stats.create () in
  Alcotest.(check int)
    "to_fields lists every Stats.t field"
    (Obj.size (Obj.repr s))
    (List.length (Sdiq_cpu.Stats.to_fields s))

(* --- register-file free list under resize + squash interleavings --------- *)

(* Random programs under the adaptive policy (physical IQ resizes) with
   speculative fetch on (squash recovery rolls the rename map and free
   lists back): after every cycle the free list's cached [free_count]
   must equal a recount of the free bitmap and the per-bank live
   counters must recount, for both register files; once the machine
   drains, exactly the initial architectural mappings are live again —
   squash rollback leaked or double-freed nothing. *)
let prop_regfile_freelist_under_resize_squash =
  let module Rf = Sdiq_cpu.Regfile in
  let audit_file name (rf : Rf.t) =
    let free = ref 0 in
    Array.iter (fun f -> if f then incr free) rf.Rf.free;
    if !free <> Rf.free_count rf then
      QCheck.Test.fail_reportf "%s: free_count %d, recount %d" name
        (Rf.free_count rf) !free;
    let live = Array.make (Rf.banks rf) 0 in
    Array.iteri
      (fun r f -> if not f then live.(rf.Rf.bank_of.(r)) <- live.(rf.Rf.bank_of.(r)) + 1)
      rf.Rf.free;
    Array.iteri
      (fun b n ->
        if rf.Rf.bank_live.(b) <> n then
          QCheck.Test.fail_reportf "%s: bank %d live %d, recount %d" name b
            rf.Rf.bank_live.(b) n)
      live
  in
  QCheck.Test.make ~count:20
    ~name:"regfile free lists exact under resize + squash interleavings"
    arbitrary_prog
    (fun desc ->
      let prog = build_program desc in
      let policy = Sdiq_cpu.Policy.abella ~window:64 ~min_limit:8 () in
      let p = Sdiq_cpu.Pipeline.create ~policy prog in
      let int_rf = Sdiq_cpu.Pipeline.Debug.int_rf p in
      let fp_rf = Sdiq_cpu.Pipeline.Debug.fp_rf p in
      let live0_int = Rf.live_count int_rf in
      let live0_fp = Rf.live_count fp_rf in
      Sdiq_cpu.Pipeline.on_cycle_end p (fun _ ->
          audit_file "int" int_rf;
          audit_file "fp" fp_rf);
      let stats = Sdiq_cpu.Pipeline.run ~max_cycles:3_000_000 p in
      stats.Sdiq_cpu.Stats.committed > 0
      && Rf.live_count int_rf = live0_int
      && Rf.live_count fp_rf = live0_fp)

(* --- interval domain: widening soundness, monotonicity, termination ------ *)

module Interval = Sdiq_analysis.Interval

let gen_interval =
  QCheck.Gen.(
    frequency
      [
        (1, return Interval.bot);
        (1, return Interval.top);
        ( 5,
          map2
            (fun a b -> Interval.make (min a b) (max a b))
            (int_range (-100) 100) (int_range (-100) 100) );
        (2, map Interval.const (int_range (-100) 100));
      ])

let interval_print iv = Fmt.str "%a" Interval.pp iv

(* A representative threshold set: the infinities plus a few immediates,
   as [thresholds_of_proc] would produce. Sorted, as [widen] requires. *)
let thresholds = [| min_int; -64; -1; 0; 1; 8; 42; 80; max_int |]

let arbitrary_interval_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)" (interval_print a) (interval_print b))
    QCheck.Gen.(pair gen_interval gen_interval)

let prop_interval_widen_sound =
  QCheck.Test.make ~count:500
    ~name:"interval widen covers the hull (and both operands)"
    arbitrary_interval_pair (fun (a, b) ->
      let w = Interval.widen ~thresholds a b in
      Interval.leq (Interval.hull a b) w
      && Interval.leq a w && Interval.leq b w)

let prop_interval_hull_monotone =
  QCheck.Test.make ~count:500
    ~name:"interval hull monotone: a<=a', b<=b' => hull a b <= hull a' b'"
    (QCheck.make
       ~print:(fun (a, b, c, d) ->
         Printf.sprintf "(%s, %s, %s, %s)" (interval_print a)
           (interval_print b) (interval_print c) (interval_print d))
       QCheck.Gen.(quad gen_interval gen_interval gen_interval gen_interval))
    (fun (a, b, c, d) ->
      let a' = Interval.hull a c and b' = Interval.hull b d in
      Interval.leq (Interval.hull a b) (Interval.hull a' b'))

(* The termination argument behind Diverged-freedom, pinned directly:
   along any widening chain each endpoint only ever moves outward
   through the finite threshold set, so the number of strict growth
   steps is bounded by 2 x |thresholds| regardless of the inputs. *)
let prop_interval_widen_chain_stabilizes =
  QCheck.Test.make ~count:200
    ~name:"interval widening chains stabilize within 2x|thresholds| steps"
    (QCheck.make
       ~print:(fun (a, bs) ->
         Printf.sprintf "%s <- %d perturbations" (interval_print a)
           (List.length bs))
       QCheck.Gen.(pair gen_interval (list_size (int_range 1 50) gen_interval)))
    (fun (a, bs) ->
      let growths = ref 0 in
      let x = ref a in
      List.iter
        (fun b ->
          let x' = Interval.widen ~thresholds !x b in
          if not (Interval.equal x' !x) then begin
            (* Strict growth must contain the old value... *)
            if not (Interval.leq !x x') then
              QCheck.Test.fail_reportf "widen shrank: %s -> %s"
                (interval_print !x) (interval_print x');
            incr growths
          end;
          x := x')
        bs;
      !growths <= 2 * Array.length thresholds)

(* Diverged-freedom end to end: the whole interval analysis (with the
   interprocedural summaries plugged in) reaches its fixpoint inside
   the engine's step budget on every random CFG, and the trip-count
   pass built on top returns without raising. *)
let prop_interval_analysis_converges =
  QCheck.Test.make ~count:30
    ~name:"interval analysis + tripcounts converge on random CFGs"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      match
        let summaries = (Interval.solve prog).Interval.summaries in
        List.iter
          (fun (p : Prog.proc) ->
            if (not p.Prog.is_library) && p.Prog.len > 0 then begin
              let cfg = Sdiq_cfg.Cfg.build prog p in
              ignore (Interval.analyze ~summaries prog p cfg
                      : Interval.solution);
              ignore (Sdiq_analysis.Tripcount.of_program prog p
                      : (int, int) Hashtbl.t)
            end)
          prog.Prog.procs
      with
      | () -> true
      | exception Sdiq_analysis.Dataflow.Diverged (name, steps) ->
        QCheck.Test.fail_reportf "Diverged(%s, %d)" name steps)

(* Soundness of the fixpoint the trip counts read: every block's entry
   fact contains each predecessor's exit fact, and the entry block's
   contains top (every register unknown on entry). *)
let prop_interval_entry_covers_preds =
  QCheck.Test.make ~count:30
    ~name:"interval entry facts cover every predecessor's exit"
    arbitrary_prog (fun desc ->
      let prog = build_program desc in
      let solved = Interval.solve prog in
      Hashtbl.iter
        (fun _ ((cfg : Sdiq_cfg.Cfg.t), (sol : Interval.solution)) ->
          let covers name a b =
            for d = 0 to Reg.count - 1 do
              let r = Reg.of_dense d in
              if not (Interval.leq (a r) (Interval.lookup b r)) then
                QCheck.Test.fail_reportf "%s: %s not covered" name
                  (Reg.to_string r)
            done
          in
          covers "entry block"
            (fun r -> if Reg.is_zero r then Interval.const 0 else Interval.top)
            sol.Interval.entry.(0);
          Array.iteri
            (fun b entry ->
              List.iter
                (fun p ->
                  covers
                    (Printf.sprintf "edge B%d->B%d" p b)
                    (Interval.lookup sol.Interval.exit.(p))
                    entry)
                (Sdiq_cfg.Cfg.preds cfg b))
            sol.Interval.entry)
        solved.Interval.solutions;
      true)

let prop_runner_memo_stable_across_parallel =
  (* For random small budgets, memoisation must return physically-equal
     stats on repeat calls — and a parallel run_all in between must not
     displace entries already in the table. *)
  QCheck.Test.make ~count:6
    ~name:"runner memoisation physically stable across parallel run_all"
    QCheck.(make ~print:string_of_int Gen.(int_range 500 3_000))
    (fun budget ->
      let benches =
        [
          Sdiq_workloads.W_gzip.build ~outer:budget ();
          Sdiq_workloads.W_crafty.build ~outer:budget ();
        ]
      in
      let r = Sdiq_harness.Runner.create ~budget ~benches ~domains:2 () in
      let tech = Sdiq_harness.Technique.Extension in
      let before = Sdiq_harness.Runner.run r "gzip" tech in
      let repeat = Sdiq_harness.Runner.run r "gzip" tech in
      Sdiq_harness.Runner.run_all r;
      let after = Sdiq_harness.Runner.run r "gzip" tech in
      before == repeat && before == after)

(* --- hand-rolled parsers ------------------------------------------------- *)

(* Strings near a parser's accepted set: a printed name, a name with a
   suffix, "nskip:" with a decorated number, or arbitrary bytes. *)
let near_names names =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map string_of_int (int_range (-3) 100);
        string_size ~gen:(oneofl [ '0'; '4'; 'x'; '_'; '+'; '-'; ' ' ])
          (int_range 0 4);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof
       [
         oneofl names;
         map2 ( ^ ) (oneofl names) (string_size ~gen:char (int_range 1 3));
         map (( ^ ) "nskip:") num;
         string_size ~gen:char (int_range 0 16);
       ])

(* [of_string s = Ok t] implies [name t = s], every printed name in
   [names] parses, and nothing raises. *)
let prop_parses_only_names ~what ~names of_string name =
  QCheck.Test.make ~count:1000
    ~name:(what ^ ".of_string accepts exactly what " ^ what ^ ".name prints")
    (near_names names)
    (fun s ->
      match of_string s with
      | Ok t -> name t = s
      | Error _ -> not (List.mem s names))

let prop_sched_of_string_canonical =
  prop_parses_only_names ~what:"Sched"
    ~names:[ "oldest_first"; "load_delay"; "nskip:4"; "nskip:80" ]
    Sdiq_cpu.Sched.of_string Sdiq_cpu.Sched.name

let prop_technique_of_string_canonical =
  let module T = Sdiq_harness.Technique in
  prop_parses_only_names ~what:"Technique"
    ~names:(List.map T.name T.extended)
    T.of_string T.name

(* Waiver files built from the tokens the parser branches on, plus
   arbitrary bytes: [parse] answers Ok or Error and never raises, and an
   accepted entry has a reason and a line number inside the file. *)
let prop_waiver_parse_total =
  let open QCheck.Gen in
  let token =
    oneofl
      [ "*"; "#"; "improved/soundness"; "main"; "12"; "0x1f"; "-3"; "1_0";
        "99999999999999999999"; "reason"; " "; "\t"; "\n"; "" ]
  in
  let content =
    oneof
      [
        map (String.concat " ") (list_size (int_range 0 12) token);
        string_size ~gen:char (int_range 0 40);
      ]
  in
  QCheck.Test.make ~count:1000 ~name:"Waiver.parse never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") content)
    (fun s ->
      match Sdiq_analysis.Waiver.parse s with
      | Error _ -> true
      | Ok ws ->
        let lines = List.length (String.split_on_char '\n' s) in
        List.for_all
          (fun (w : Sdiq_analysis.Waiver.t) ->
            w.Sdiq_analysis.Waiver.reason <> ""
            && w.Sdiq_analysis.Waiver.line >= 1
            && w.Sdiq_analysis.Waiver.line <= lines)
          ws)

(* A waiver address is accepted iff it is the canonical decimal of the
   integer it reads as, and the entry then holds that integer; otherwise
   the error names line 1. *)
let prop_waiver_address_canonical =
  let open QCheck.Gen in
  let addr =
    oneof
      [
        map string_of_int int;
        map (String.concat "")
          (list_size (int_range 1 6)
             (oneofl [ "0"; "1"; "3"; "9"; "-"; "+"; "_"; "x"; "o"; "b" ]));
        oneofl [ "4611686018427387903"; "4611686018427387904"; "-0" ];
      ]
  in
  QCheck.Test.make ~count:1000 ~name:"Waiver.parse address canonical"
    (QCheck.make ~print:(Printf.sprintf "%S") addr)
    (fun a ->
      let canonical =
        Option.map string_of_int (int_of_string_opt a) = Some a
      in
      match
        Sdiq_analysis.Waiver.parse
          (Printf.sprintf "noop/soundness * %s acknowledged" a)
      with
      | Ok [ w ] ->
        canonical
        && Option.map string_of_int w.Sdiq_analysis.Waiver.addr = Some a
      | Ok _ -> false
      | Error e -> (not canonical) && String.starts_with ~prefix:"line 1:" e)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sched_of_string_canonical;
      prop_technique_of_string_canonical;
      prop_waiver_parse_total;
      prop_waiver_address_canonical;
      prop_runner_memo_stable_across_parallel;
      prop_interval_widen_sound;
      prop_interval_hull_monotone;
      prop_interval_widen_chain_stabilizes;
      prop_interval_analysis_converges;
      prop_interval_entry_covers_preds;
      prop_stats_add_conservation;
      prop_regfile_freelist_under_resize_squash;
      prop_annotation_preserves_semantics;
      prop_tagging_preserves_semantics;
      prop_pipeline_matches_functional;
      prop_software_policy_correct_and_live;
      prop_abella_policy_correct_and_live;
      prop_analysis_values_in_range;
      prop_wakeup_ordering;
      prop_software_reduces_or_preserves_wakeups;
      prop_strip_insert_roundtrip;
      prop_pseudo_iq_respects_deps;
      prop_loop_schedule_sane;
    ]
  @ [
      Alcotest.test_case "Stats field table covers the record" `Quick
        test_stats_field_table_covers_record;
    ]
