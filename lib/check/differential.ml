(* Differential oracle harness.

   The functional executor ([Sdiq_isa.Exec]) is the precise reference
   model; the pipeline must commit exactly the dynamic stream the oracle
   produces, whatever resizing technique is active. [run] executes a
   program both ways for every technique in [Sdiq_harness.Technique] and
   compares the committed architectural trace — sequence number, pc,
   opcode, branch outcome, target, memory effective address —
   instruction by instruction, then the final architectural state
   (registers and memory) across techniques against the baseline, since
   annotation must not change program semantics.

   Special NOOPs ([Iqset]) execute in the oracle but are stripped before
   dispatch and never commit, so the oracle stream is filtered of them
   (and of [Halt], which stops fetch without entering the ROB).

   On divergence the harness reports a replayable case: the technique,
   the first mismatching instruction with the oracle's expected values,
   the trailing context, and the prepared program listing around the
   divergence point. Minimisation is the caller's job — the fuzz driver
   (test/fuzz_main.ml) reports the generating seed and the qcheck
   property shrinks the program description. *)

open Sdiq_isa
open Sdiq_harness

type event = {
  dyn : Exec.dyn;
  value : string;  (* printed destination value after execution, "" if none *)
  store : (int * string) option;  (* effective address, value written *)
}

type mismatch = {
  index : int;  (* position in the committed stream *)
  expected : event option;  (* [None]: the pipeline committed extra *)
  got : Exec.dyn option;    (* [None]: the pipeline committed too little *)
  context : event list;     (* the last few agreed-upon events *)
}

type failure =
  | Trace_mismatch of mismatch
  | State_mismatch of string  (* final registers/memory differ vs baseline *)
  | Violation of Checker.violation
  | Stuck of string  (* deadlock: Pipeline.Simulation_limit *)

type outcome = (Sdiq_cpu.Stats.t, failure) result

type report = {
  technique : Technique.t;
  prepared : Prog.t;  (* the binary actually simulated — the replay case *)
  outcome : outcome;
}

(* --- oracle trace -------------------------------------------------------- *)

let pp_value (st : Exec.state) (i : Instr.t) =
  match Instr.dest i with
  | Some (Reg.Int r) -> string_of_int st.Exec.iregs.(r)
  | Some (Reg.Fp r) -> Printf.sprintf "%h" st.Exec.fregs.(r)
  | None -> ""

(* Execute [prog] functionally, recording one event per dynamic
   instruction that the pipeline will commit (everything but Iqset and
   Halt). [max_steps] guards runaway programs. *)
let oracle_trace ?init ~max_steps prog =
  let st = Exec.create prog in
  (match init with Some f -> f st | None -> ());
  let events = ref [] in
  let steps = ref 0 in
  let truncated = ref false in
  let rec go () =
    if !steps >= max_steps then truncated := true
    else
      match Exec.step st with
      | None -> ()
      | Some dyn ->
        incr steps;
        let op = dyn.Exec.instr.Instr.op in
        if op <> Opcode.Iqset && op <> Opcode.Halt then begin
          let store =
            if Instr.is_store dyn.Exec.instr then
              let v =
                if dyn.Exec.instr.Instr.op = Opcode.Fstore then
                  Printf.sprintf "%h" (Exec.fpeek st dyn.Exec.addr)
                else string_of_int (Exec.peek st dyn.Exec.addr)
              in
              Some (dyn.Exec.addr, v)
            else None
          in
          events :=
            { dyn; value = pp_value st dyn.Exec.instr; store } :: !events
        end;
        go ()
  in
  go ();
  (st, Array.of_list (List.rev !events), !truncated)

(* --- comparison ---------------------------------------------------------- *)

let same_dyn (a : Exec.dyn) (b : Exec.dyn) =
  a.Exec.sn = b.Exec.sn && a.Exec.pc = b.Exec.pc
  && a.Exec.instr.Instr.op = b.Exec.instr.Instr.op
  && a.Exec.next_pc = b.Exec.next_pc
  && a.Exec.taken = b.Exec.taken && a.Exec.addr = b.Exec.addr

let context_window = 5

let diff_traces (expected : event array) (got : Exec.dyn array) =
  let n = min (Array.length expected) (Array.length got) in
  let context i =
    let lo = max 0 (i - context_window) in
    Array.to_list (Array.sub expected lo (i - lo))
  in
  let rec scan i =
    if i < n then
      if same_dyn expected.(i).dyn got.(i) then scan (i + 1)
      else
        Some
          {
            index = i;
            expected = Some expected.(i);
            got = Some got.(i);
            context = context i;
          }
    else if Array.length expected > n then
      Some
        { index = n; expected = Some expected.(n); got = None; context = context n }
    else if Array.length got > n then
      Some { index = n; expected = None; got = Some got.(n); context = context n }
    else None
  in
  scan 0

(* Final architectural state as a canonical, comparable value. Program
   counters are excluded — techniques relocate code — but registers and
   memory must agree across all techniques. *)
type arch_state = {
  iregs : int array;
  fregs : float array;
  imem : (int * int) list;    (* sorted, zero values dropped *)
  fmem : (int * float) list;
}

let arch_state (st : Exec.state) =
  let imem, fmem = Exec.memory st in
  {
    iregs = Array.copy st.Exec.iregs;
    fregs = Array.copy st.Exec.fregs;
    imem = List.filter (fun (_, v) -> v <> 0) imem;
    fmem = List.filter (fun (_, v) -> v <> 0.) fmem;
  }

(* Polymorphic [compare], not [(<>)]: fdiv produces NaNs, and structural
   inequality calls [nan <> nan] true while [compare nan nan = 0]. *)
let diff_arch_state ~(baseline : arch_state) (s : arch_state) =
  if compare baseline.iregs s.iregs <> 0 then
    Some "integer registers differ from the baseline program's final state"
  else if compare baseline.fregs s.fregs <> 0 then
    Some "fp registers differ from the baseline program's final state"
  else if compare baseline.imem s.imem <> 0 then
    Some "integer memory differs from the baseline program's final state"
  else if compare baseline.fmem s.fmem <> 0 then
    Some "fp memory differs from the baseline program's final state"
  else None

(* --- one technique ------------------------------------------------------- *)

(* Prepare the binary, trace it on the oracle, run the pipeline with a
   fresh invariant checker (unless [check:false]) and compare committed
   traces. *)
let run_one ?config ?init ~check ~max_cycles ~max_steps technique prog :
    report =
  let prepared = Technique.prepare technique prog in
  let _, expected, truncated = oracle_trace ?init ~max_steps prepared in
  if truncated then
    {
      technique;
      prepared;
      outcome =
        Error
          (Stuck
             (Printf.sprintf "oracle exceeded %d steps — unbounded program"
                max_steps));
    }
  else begin
    let committed = ref [] in
    let policy = Technique.policy technique in
    let p = Sdiq_cpu.Pipeline.create ?config ~policy prepared in
    (* Both observers ride the event bus: the commit capture collects
       the trace to diff against the oracle, and the invariant checker
       audits every [Cycle_end]. *)
    Sdiq_cpu.Pipeline.on_commit_sink ~name:"oracle-trace-capture" p (fun dyn ->
        committed := dyn :: !committed);
    if check then ignore (Checker.attach p : Checker.t);
    (match init with
    | Some f -> f p.Sdiq_cpu.Pipeline.exec
    | None -> ());
    let outcome =
      match Sdiq_cpu.Pipeline.run ~max_cycles p with
      | stats -> (
        let got = Array.of_list (List.rev !committed) in
        match diff_traces expected got with
        | Some m -> Error (Trace_mismatch m)
        | None -> Ok stats)
      | exception Checker.Invariant_violation v -> Error (Violation v)
      | exception Sdiq_cpu.Pipeline.Simulation_limit msg -> Error (Stuck msg)
    in
    { technique; prepared; outcome }
  end

(* --- all techniques ------------------------------------------------------ *)

let run ?config ?init ?(check = true) ?(max_cycles = 2_000_000)
    ?(max_steps = 1_000_000) ?(techniques = Technique.all) prog :
    report list =
  (* The baseline program's functional result anchors the cross-technique
     semantic comparison: annotation must not change what the program
     computes. *)
  let base_st, _, base_truncated = oracle_trace ?init ~max_steps prog in
  let baseline = arch_state base_st in
  List.map
    (fun technique ->
      let r =
        run_one ?config ?init ~check ~max_cycles ~max_steps technique prog
      in
      match r.outcome with
      | Ok _ when not base_truncated -> (
        (* The pipeline's own executor has replayed the full prepared
           program by drain time; its architectural state must match the
           unannotated program's. *)
        let st =
          let p2 = Exec.create r.prepared in
          (match init with Some f -> f p2 | None -> ());
          ignore (Exec.run ~max_steps p2);
          p2
        in
        match diff_arch_state ~baseline (arch_state st) with
        | Some msg -> { r with outcome = Error (State_mismatch msg) }
        | None -> r)
      | Ok _ | Error _ -> r)
    techniques

let ok reports =
  List.for_all
    (fun r -> match r.outcome with Ok _ -> true | Error _ -> false)
    reports

(* --- reporting ----------------------------------------------------------- *)

let pp_event ppf (e : event) =
  let d = e.dyn in
  Fmt.pf ppf "sn=%-5d pc=%-4d %-24s" d.Exec.sn d.Exec.pc
    (Instr.to_string d.Exec.instr);
  if e.value <> "" then Fmt.pf ppf " => %s" e.value;
  (match e.store with
  | Some (addr, v) -> Fmt.pf ppf " mem[%d] <- %s" addr v
  | None -> ());
  if Instr.is_control d.Exec.instr then
    Fmt.pf ppf " (%s -> %d)"
      (if d.Exec.taken then "taken" else "not-taken")
      d.Exec.next_pc

let pp_dyn ppf (d : Exec.dyn) =
  Fmt.pf ppf "sn=%-5d pc=%-4d %-24s addr=%d taken=%b next=%d" d.Exec.sn
    d.Exec.pc
    (Instr.to_string d.Exec.instr)
    d.Exec.addr d.Exec.taken d.Exec.next_pc

(* The prepared-program listing around an address: the replayable core of
   a divergence report. *)
let pp_listing ppf (prog : Prog.t) ~around =
  let lo = max 0 (around - 6) and hi = min (Prog.length prog - 1) (around + 6) in
  for a = lo to hi do
    Fmt.pf ppf "  %c %4d: %s@."
      (if a = around then '>' else ' ')
      a
      (Instr.to_string (Prog.instr prog a))
  done

let pp_failure ~prepared ppf = function
  | Trace_mismatch m ->
    Fmt.pf ppf "committed trace diverges from the oracle at instruction %d:@."
      m.index;
    (match m.context with
    | [] -> ()
    | ctx ->
      Fmt.pf ppf "  agreed context:@.";
      List.iter (fun e -> Fmt.pf ppf "    %a@." pp_event e) ctx);
    (match m.expected with
    | Some e -> Fmt.pf ppf "  oracle expects: %a@." pp_event e
    | None -> Fmt.pf ppf "  oracle expects: (end of program)@.");
    (match m.got with
    | Some d -> Fmt.pf ppf "  pipeline committed: %a@." pp_dyn d
    | None -> Fmt.pf ppf "  pipeline committed: (nothing further)@.");
    let around =
      match (m.expected, m.got) with
      | Some e, _ -> e.dyn.Exec.pc
      | None, Some d -> d.Exec.pc
      | None, None -> 0
    in
    Fmt.pf ppf "  program around pc %d:@.%a" around
      (fun ppf () -> pp_listing ppf prepared ~around)
      ()
  | State_mismatch msg -> Fmt.pf ppf "final state mismatch: %s@." msg
  | Violation v -> Fmt.pf ppf "%a@." Checker.pp_violation v
  | Stuck msg -> Fmt.pf ppf "no forward progress: %s@." msg

let pp_report ppf r =
  match r.outcome with
  | Ok stats ->
    Fmt.pf ppf "%-10s ok (%d instructions, %d cycles)"
      (Technique.name r.technique)
      stats.Sdiq_cpu.Stats.committed stats.Sdiq_cpu.Stats.cycles
  | Error f ->
    Fmt.pf ppf "%-10s FAILED: %a" (Technique.name r.technique)
      (pp_failure ~prepared:r.prepared)
      f

let first_failure reports =
  List.find_opt
    (fun r -> match r.outcome with Error _ -> true | Ok _ -> false)
    reports
