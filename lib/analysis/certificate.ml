(* Occupancy and energy certificates over the delivered binary.

   Region starts are read straight from the instruction stream — every
   [Iqset] and every tagged instruction — so the certificate covers the
   program the machine decodes, under any delivery mode, including a
   program with no annotations at all (whose only region is the wide-
   open startup region, certified at the physical cap).

   The successor graph is built by a flood from each region start over
   instruction successors, stopping at (and recording) any *other*
   region start: the dynamic episode sequence is a path in this graph,
   because a region only opens when its start instruction reaches
   dispatch — on the right path or the wrong one, which follows the
   same static edges except through [Ret], whose predicted target is
   corruptible and therefore saturates the certifying region. *)

open Sdiq_isa
module Config = Sdiq_cpu.Config
module Stats = Sdiq_cpu.Stats
module Params = Sdiq_power.Params

type region = {
  start : int;
  window : int;
  occ_bound : int;
  saturated : bool;
}

type t = {
  regions : region list;
  occ_bound : int;
  cap : int;
}

let window_of (i : Instr.t) =
  if i.Instr.op = Opcode.Iqset then Some i.Instr.imm else i.Instr.tag

(* Successors of one executed instruction, as fetch may follow them. *)
type succ =
  | Next of int list
  | Saturate

let succ_of (prog : Prog.t) addr (i : Instr.t) : succ =
  let len = Prog.length prog in
  let fall = if addr + 1 < len then [ addr + 1 ] else [] in
  let tgt = if i.Instr.target >= 0 && i.Instr.target < len then [ i.Instr.target ] else [] in
  match i.Instr.op with
  | Opcode.Halt -> Next []
  | Opcode.Ret -> Saturate
  | Opcode.Jmp -> Next tgt
  | Opcode.Call -> Next (tgt @ fall)
  | op when Opcode.is_cond_branch op -> Next (tgt @ fall)
  | _ -> Next fall

(* Flood from [root] (itself traversed: re-reaching the same anchor is
   the policy-suppressed same-pc reopen), collecting the first other
   region starts reached and whether a [Ret] is reachable first. *)
let flood prog is_start root =
  let succs = ref [] in
  let sat = ref false in
  let seen = Hashtbl.create 64 in
  let rec go addr =
    if not (Hashtbl.mem seen addr) then begin
      Hashtbl.add seen addr ();
      if is_start addr && addr <> root then succs := addr :: !succs
      else
        match succ_of prog addr (Prog.instr prog addr) with
        | Saturate -> sat := true
        | Next ns -> List.iter go ns
    end
  in
  go root;
  (!succs, !sat)

(* Tarjan SCC over node indices. *)
let scc_of n succs =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let comp_size = ref [] in
  let stack = ref [] in
  let next = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let size = ref 0 in
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          incr size;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      comp_size := !size :: !comp_size;
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strong v
  done;
  let sizes = Array.of_list (List.rev !comp_size) in
  (comp, sizes)

let build (cfg : Config.t) (prog : Prog.t) : t =
  let cap = min cfg.Config.iq_size cfg.Config.rob_size in
  let len = Prog.length prog in
  let starts = ref [] in
  for addr = len - 1 downto 0 do
    match window_of (Prog.instr prog addr) with
    | Some w ->
      (* The policy floors the window at 1; its span cap keeps an
         episode under the queue size regardless of the value. *)
      starts := (addr, max 1 (min w cfg.Config.iq_size)) :: !starts
    | None -> ()
  done;
  let starts = Array.of_list !starts in
  let n = Array.length starts in
  let node_of = Hashtbl.create (2 * (n + 1)) in
  Array.iteri (fun i (a, _) -> Hashtbl.add node_of a i) starts;
  let is_start a = Hashtbl.mem node_of a in
  let succs = Array.make n [] in
  let sat = Array.make n false in
  Array.iteri
    (fun i (a, _) ->
      let edges, s = flood prog is_start a in
      succs.(i) <- List.map (Hashtbl.find node_of) edges;
      sat.(i) <- s)
    starts;
  let comp, comp_sizes = scc_of n succs in
  (* Saturation is a component property: any member's [Ret], or a cycle
     through distinct anchors (component size > 1 — same-node self
     edges cannot arise, the flood suppresses them). *)
  let comp_sat = Array.map (fun s -> s > 1) comp_sizes in
  Array.iteri (fun i s -> if s then comp_sat.(comp.(i)) <- true) sat;
  let sat_add a b = if a >= cap - b then cap else a + b in
  let chain = Array.make n (-1) in
  let rec chain_of i =
    if chain.(i) >= 0 then chain.(i)
    else if comp_sat.(comp.(i)) then begin
      chain.(i) <- cap;
      cap
    end
    else begin
      (* Singleton non-saturated component: successors are strictly
         lower in the condensation, so the recursion terminates. *)
      let _, w = starts.(i) in
      let tail = List.fold_left (fun acc j -> max acc (chain_of j)) 0 succs.(i) in
      let c = sat_add w tail in
      chain.(i) <- c;
      c
    end
  in
  let regions =
    Array.to_list
      (Array.mapi
         (fun i (start, window) ->
           let c = chain_of i in
           {
             start;
             window;
             occ_bound = min cap c;
             saturated = comp_sat.(comp.(i));
           })
         starts)
  in
  (* The startup region runs wide open, so it saturates the program
     bound — unless the entry instruction itself opens a region, in
     which case nothing ever dispatches under startup. *)
  let occ_bound =
    if is_start prog.Prog.entry then
      List.fold_left (fun acc (r : region) -> max acc r.occ_bound) 1 regions
    else cap
  in
  { regions; occ_bound; cap }

let occupancy_bound t ~start =
  List.find_map
    (fun r -> if r.start = start then Some r.occ_bound else None)
    t.regions

(* Static bound on [iq_wakeups_gated] given the measured broadcast
   count. *)
let wakeups_bound t ~broadcasts = 2 * t.occ_bound * broadcasts

(* Static bound on [iq_banks_on_sum] given the measured cycle count. *)
let bank_cycles_bound cfg t ~cycles =
  min (Config.iq_banks cfg) t.occ_bound * cycles

(* Upper bound on the technique-view IQ energy (dynamic + static) of a
   run with these measured statistics. *)
let energy_bound (p : Params.t) cfg t (s : Stats.t) : float =
  let bank_cycles =
    float_of_int (bank_cycles_bound cfg t ~cycles:s.Stats.cycles)
  in
  (float_of_int (wakeups_bound t ~broadcasts:s.Stats.iq_broadcasts)
  *. p.Params.e_wakeup)
  +. Sdiq_power.Iq_power.base_activity p s
  +. (bank_cycles *. (p.Params.e_iq_bank_cycle +. p.Params.iq_leak_bank_cycle))

let check (p : Params.t) cfg t (s : Stats.t) : Finding.t list =
  let findings = ref [] in
  let fail msg = findings := Finding.make Finding.Error ~pass:"certificate" msg :: !findings in
  let wb = wakeups_bound t ~broadcasts:s.Stats.iq_broadcasts in
  if s.Stats.iq_wakeups_gated > wb then
    fail
      (Fmt.str "measured iq_wakeups_gated %d exceeds certified bound %d"
         s.Stats.iq_wakeups_gated wb);
  let bb = bank_cycles_bound cfg t ~cycles:s.Stats.cycles in
  if s.Stats.iq_banks_on_sum > bb then
    fail
      (Fmt.str "measured iq_banks_on_sum %d exceeds certified bound %d"
         s.Stats.iq_banks_on_sum bb);
  let e = Sdiq_power.Iq_power.technique p s in
  let measured = e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_ in
  let bound = energy_bound p cfg t s in
  if measured > bound then
    fail
      (Fmt.str "measured IQ energy %.3f exceeds certified bound %.3f" measured
         bound);
  if !findings <> [] then List.rev !findings
  else
    [
      Finding.make Finding.Info ~pass:"certificate"
        (Fmt.str
           "certified %d regions (max occupancy bound %d, cap %d): wakeups \
            %d <= %d, bank-cycles %d <= %d, energy %.3f <= %.3f"
           (List.length t.regions) t.occ_bound t.cap s.Stats.iq_wakeups_gated
           wb s.Stats.iq_banks_on_sum bb measured bound);
    ]

let pp ppf t =
  Fmt.pf ppf "@[<v>certificate: cap %d, program bound %d@," t.cap t.occ_bound;
  List.iter
    (fun r ->
      Fmt.pf ppf "  @%04d window %d -> occupancy <= %d%s@," r.start r.window
        r.occ_bound
        (if r.saturated then " (saturated)" else ""))
    t.regions;
  Fmt.pf ppf "@]"
