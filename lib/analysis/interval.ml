(* Interval abstract interpretation over the Dataflow worklist.

   Each block's input is recomputed fresh on every visit by folding
   [join] over predecessor outputs, so termination rests entirely on
   the join: plain interval hull has unbounded ascending chains (a
   counting loop manufactures a new constant every iteration), so
   [join] widens any endpoint that escapes the accumulated fact to the
   nearest enclosing threshold. Thresholds are the procedure's own
   immediates plus {-1, 0, 1} and the infinities: loop bounds written
   in the code survive widening exactly, which is what the trip-count
   pass needs.

   The fixpoint is allocation-light. An environment is one flat int
   array holding every register's [lo, hi] pair side by side, bottom
   stored canonically as [(max_int, min_int)]; joins, widening and the
   per-instruction transfer write into per-block arrays allocated once
   per analysis, so a visit allocates nothing. The scalar [t] is the
   interface for single values (trip-count reads, the qcheck
   properties), and its [widen] runs the same flat kernel. *)

open Sdiq_isa

type t =
  | Bot
  | Iv of { lo : int; hi : int }

let bot = Bot
let top = Iv { lo = min_int; hi = max_int }
let const n = Iv { lo = n; hi = n }
let make lo hi = if lo > hi then Bot else Iv { lo; hi }

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Iv a, Iv b -> a.lo = b.lo && a.hi = b.hi
  | _ -> false

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv a, Iv b -> b.lo <= a.lo && a.hi <= b.hi

let hull a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv a, Iv b -> Iv { lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Largest threshold <= v / smallest >= v (the infinities when none),
   by binary search over the sorted [thresholds]. Loops over local refs,
   not a local recursive function: a closure per snap would be the
   fixpoint's main allocation. *)
let snap_down thresholds v =
  let lo = ref 0 and hi = ref (Array.length thresholds) and acc = ref min_int in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let t = thresholds.(mid) in
    if t <= v then begin
      acc := t;
      lo := mid + 1
    end
    else hi := mid
  done;
  !acc

let snap_up thresholds v =
  let lo = ref 0 and hi = ref (Array.length thresholds) and acc = ref max_int in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let t = thresholds.(mid) in
    if t >= v then begin
      acc := t;
      hi := mid
    end
    else lo := mid + 1
  done;
  !acc

(* Saturating scalar arithmetic; min_int/max_int are absorbing. *)
let sat_add x y =
  if x = min_int || y = min_int then min_int
  else if x = max_int || y = max_int then max_int
  else
    let s = x + y in
    if x > 0 && y > 0 && s < 0 then max_int
    else if x < 0 && y < 0 && s >= 0 then min_int
    else s

let sat_neg x =
  if x = min_int then max_int else if x = max_int then min_int else -x

let sat_mul x y =
  if x = 0 || y = 0 then 0
  else if x = min_int || x = max_int || y = min_int || y = max_int then
    if (x > 0) = (y > 0) then max_int else min_int
  else
    let p = x * y in
    if p / y <> x then if (x > 0) = (y > 0) then max_int else min_int else p

let thresholds_of_proc (prog : Prog.t) (proc : Prog.proc) =
  let acc = ref [ min_int; -1; 0; 1; max_int ] in
  List.iter
    (fun addr ->
      let i = Prog.instr prog addr in
      acc := i.Instr.imm :: !acc)
    (Prog.proc_addrs proc);
  Array.of_list (List.sort_uniq compare !acc)

(* --- flat environments --------------------------------------------------- *)

(* Register [r]'s interval lives at [2 * Reg.dense r] (lo) and the slot
   after it (hi); [lo > hi] only ever as the canonical bottom. *)
type env = int array

let width = 2 * Reg.count

let env_bot () =
  Array.init width (fun j -> if j land 1 = 0 then max_int else min_int)

let env_top () =
  Array.init width (fun j -> if j land 1 = 0 then min_int else max_int)

(* Never written: the fixpoint blits them into its scratch arrays. *)
let bot_env = env_bot ()
let top_env = env_top ()

let set e k lo hi =
  e.(k) <- lo;
  e.(k + 1) <- hi

let set_bot e k = set e k max_int min_int
let set_top e k = set e k min_int max_int

let of_pair lo hi = if lo > hi then Bot else Iv { lo; hi }

let lookup e r =
  if Reg.is_zero r then const 0
  else
    let k = 2 * Reg.dense r in
    of_pair e.(k) e.(k + 1)

(* Widen slot [k] of [dst] by slot [j] of [src], in place: an endpoint
   that escapes the accumulated fact jumps to the nearest threshold. *)
let widen_into ~thresholds dst k src j =
  let blo = src.(j) and bhi = src.(j + 1) in
  if blo <= bhi then begin
    let alo = dst.(k) and ahi = dst.(k + 1) in
    if alo > ahi then set dst k blo bhi
    else begin
      if blo < alo then dst.(k) <- snap_down thresholds blo;
      if bhi > ahi then dst.(k + 1) <- snap_up thresholds bhi
    end
  end

let widen ~thresholds a b =
  let pair = function Bot -> [| max_int; min_int |] | Iv { lo; hi } -> [| lo; hi |] in
  let acc = pair a in
  widen_into ~thresholds acc 0 (pair b) 0;
  of_pair acc.(0) acc.(1)

let join_into ~thresholds dst src =
  for k = 0 to Reg.count - 1 do
    widen_into ~thresholds dst (2 * k) src (2 * k)
  done

let env_equal (a : env) b =
  let rec go j = j >= width || (a.(j) = b.(j) && go (j + 1)) in
  go 0

let env_leq (a : env) b =
  let rec go k =
    k >= width
    || ((a.(k) > a.(k + 1)
        || (b.(k) <= b.(k + 1) && b.(k) <= a.(k) && a.(k + 1) <= b.(k + 1)))
       && go (k + 2))
  in
  go 0

(* --- transfer ------------------------------------------------------------ *)

(* Operand bounds: a missing operand is top, the zero register const 0. *)
let lo_of e = function
  | None -> min_int
  | Some r -> if Reg.is_zero r then 0 else e.(2 * Reg.dense r)

let hi_of e = function
  | None -> max_int
  | Some r -> if Reg.is_zero r then 0 else e.(2 * Reg.dense r + 1)

let add_into e k alo ahi blo bhi =
  if alo > ahi || blo > bhi then set_bot e k
  else set e k (sat_add alo blo) (sat_add ahi bhi)

let mul_into e k alo ahi blo bhi =
  if alo > ahi || blo > bhi then set_bot e k
  else
    let p1 = sat_mul alo blo and p2 = sat_mul alo bhi in
    let p3 = sat_mul ahi blo and p4 = sat_mul ahi bhi in
    set e k (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))

(* For non-negative operands, [x land y <= min x y]. *)
let and_into e k alo ahi blo bhi =
  if alo > ahi || blo > bhi then set_bot e k
  else if alo >= 0 && blo >= 0 then set e k 0 (min ahi bhi)
  else set_top e k

let shr_into e k alo ahi =
  if alo > ahi then set_bot e k
  else if alo >= 0 then set e k 0 ahi
  else set_top e k

(* Abstract evaluation of one instruction, in place. [call] rewrites the
   environment across a [Call]. *)
let eval_into ~call e (i : Instr.t) =
  if i.Instr.op = Opcode.Call then call ~target:i.Instr.target e
  else
    match Instr.dest i with
    | None -> ()
    | Some d ->
      let k = 2 * Reg.dense d in
      let s1 = i.Instr.src1 and s2 = i.Instr.src2 and imm = i.Instr.imm in
      let alo = lo_of e s1 and ahi = hi_of e s1 in
      (match i.Instr.op with
      | Opcode.Li -> set e k imm imm
      | Opcode.Mov -> set e k alo ahi
      | Opcode.Add -> add_into e k alo ahi (lo_of e s2) (hi_of e s2)
      | Opcode.Sub ->
        add_into e k alo ahi (sat_neg (hi_of e s2)) (sat_neg (lo_of e s2))
      | Opcode.Addi -> add_into e k alo ahi imm imm
      | Opcode.Mul -> mul_into e k alo ahi (lo_of e s2) (hi_of e s2)
      | Opcode.And -> and_into e k alo ahi (lo_of e s2) (hi_of e s2)
      | Opcode.Andi -> and_into e k alo ahi imm imm
      | Opcode.Shr | Opcode.Shri -> shr_into e k alo ahi
      | Opcode.Slt | Opcode.Sle | Opcode.Seq | Opcode.Sne | Opcode.Slti ->
        set e k 0 1
      | _ -> set_top e k)

(* --- interprocedural summaries ------------------------------------------- *)

type proc_summary = {
  may_defs : Regset.t;
  ret_env : env;
}

let opaque_summary () = { may_defs = Regset.full; ret_env = env_top () }

let havoc ~target:_ e = Array.blit top_env 0 e 0 width

let call_into tbl ~target e =
  match Hashtbl.find_opt tbl target with
  | None -> havoc ~target e
  | Some s ->
    for r = 0 to Reg.count - 1 do
      if Regset.mem_dense r s.may_defs then
        set e (2 * r) s.ret_env.(2 * r) s.ret_env.((2 * r) + 1)
    done

type solution = {
  entry : env array;
  exit : env array;
}

(* What one procedure's fixpoint needs, built once per procedure even
   when the interprocedural round-robin re-solves it every round. *)
type proc_ctx = {
  name : string;
  cfg : Sdiq_cfg.Cfg.t;
  thresholds : int array;
  code : Instr.t array array; (* per block, in address order *)
  callees : int list; (* distinct call targets *)
}

let ctx_of prog (proc : Prog.proc) cfg =
  let code =
    Array.map
      (fun blk -> Array.of_list (Sdiq_cfg.Cfg.instrs cfg blk))
      cfg.Sdiq_cfg.Cfg.blocks
  in
  let callees =
    Array.fold_left
      (Array.fold_left (fun acc (i : Instr.t) ->
           if i.Instr.op = Opcode.Call then i.Instr.target :: acc else acc))
      [] code
    |> List.sort_uniq compare
  in
  {
    name = "interval/" ^ proc.Prog.name;
    cfg;
    thresholds = thresholds_of_proc prog proc;
    code;
    callees;
  }

let analyze_ctx ~call ctx : solution =
  let cfg = ctx.cfg and thresholds = ctx.thresholds in
  let nb = Array.length ctx.code in
  (* The in-fact is recomputed fresh per visit, so the within-fold join
     alone cannot widen: when the growing predecessor happens to be
     folded first, nothing ever escapes the accumulator and a counting
     loop climbs one constant per visit until the step budget. Widening
     needs the *visit history*, kept here per block: each endpoint
     either survives or snaps to the next threshold, so every block's
     history fact changes at most a bounded number of times and the
     fixpoint terminates. The history is also what the transfer runs
     from, and what [entry] reports, so entry and exit line up. *)
  let widened = Array.init nb (fun _ -> env_bot ()) in
  let output = Array.init nb (fun _ -> env_bot ()) in
  let in_fact = env_bot () in
  (* Scratch for the transfer; swapped with [output.(b)] on change. *)
  let spare = ref (env_bot ()) in
  let visit b =
    Array.blit (if b = 0 then top_env else bot_env) 0 in_fact 0 width;
    List.iter
      (fun p -> join_into ~thresholds in_fact output.(p))
      (Sdiq_cfg.Cfg.preds cfg b);
    let w = widened.(b) in
    join_into ~thresholds w in_fact;
    let out = !spare in
    Array.blit w 0 out 0 width;
    let code = ctx.code.(b) in
    for n = 0 to Array.length code - 1 do
      eval_into ~call out code.(n)
    done;
    let changed = not (env_equal out output.(b)) in
    if changed then begin
      spare := output.(b);
      output.(b) <- out
    end;
    changed
  in
  ignore
    (Dataflow.worklist ~name:ctx.name cfg Dataflow.Forward visit : int);
  { entry = widened; exit = output }

let analyze ?summaries prog proc cfg =
  let call = match summaries with Some tbl -> call_into tbl | None -> havoc in
  analyze_ctx ~call (ctx_of prog proc cfg)

(* One summary recomputation for a procedure under the current table,
   with the fixpoint it came from. *)
let summarize tbl (prog : Prog.t) ctx : proc_summary * solution =
  let sol = analyze_ctx ~call:(call_into tbl) ctx in
  let may_defs = ref Regset.empty in
  let ret_env = env_bot () in
  Array.iteri
    (fun b code ->
      Array.iter
        (fun (i : Instr.t) ->
          (match Instr.dest i with
          | Some d -> may_defs := Regset.add d !may_defs
          | None -> ());
          if i.Instr.op = Opcode.Call then
            may_defs :=
              Regset.union !may_defs
                (match Hashtbl.find_opt tbl i.Instr.target with
                | Some s -> s.may_defs
                | None -> Regset.full))
        code;
      let last = Prog.instr prog ctx.cfg.Sdiq_cfg.Cfg.blocks.(b).Sdiq_cfg.Cfg.last in
      if last.Instr.op = Opcode.Ret then
        join_into ~thresholds:ctx.thresholds ret_env sol.exit.(b))
    ctx.code;
  ({ may_defs = !may_defs; ret_env }, sol)

type program = {
  summaries : (int, proc_summary) Hashtbl.t;
  solutions : (int, Sdiq_cfg.Cfg.t * solution) Hashtbl.t;
}

let solve (prog : Prog.t) : program =
  let tbl = Hashtbl.create 16 in
  let solutions = Hashtbl.create 16 in
  let analysable =
    List.filter_map
      (fun (p : Prog.proc) ->
        if p.Prog.is_library || p.Prog.len = 0 then begin
          Hashtbl.replace tbl p.Prog.entry (opaque_summary ());
          None
        end
        else begin
          (* Optimistic start: nothing defined, no exit value yet. *)
          Hashtbl.replace tbl p.Prog.entry
            { may_defs = Regset.empty; ret_env = env_bot () };
          Some (p, ctx_of prog p (Sdiq_cfg.Cfg.build prog p))
        end)
      prog.Prog.procs
  in
  (* A summary depends only on its callees' table entries, so a
     procedure none of whose callees changed since its last solve would
     recompute exactly what it already merged: it is skipped. Stamps
     order solves and table updates on one clock; a procedure is stale
     when some callee's entry is newer than its own last solve (itself
     included, for recursion). *)
  let clock = ref 0 in
  let tick () = incr clock; !clock in
  let updated = Hashtbl.create 16 in
  let updated_at entry =
    Option.value ~default:0 (Hashtbl.find_opt updated entry)
  in
  let solved_at = Hashtbl.create 16 in
  let stale (p : Prog.proc) ctx =
    match Hashtbl.find_opt solved_at p.Prog.entry with
    | None -> true
    | Some t -> List.exists (fun c -> updated_at c > t) ctx.callees
  in
  (* Round-robin to a fixpoint: may_defs only grows and ret_env only
     widens (finite threshold lattice), so this terminates; the cap is
     a backstop, degrading to the sound opaque summary if ever hit. *)
  let max_rounds = 100 in
  let rec iterate round =
    if round > max_rounds then begin
      List.iter
        (fun ((p : Prog.proc), _) ->
          Hashtbl.replace tbl p.Prog.entry (opaque_summary ()))
        analysable;
      (* The last round's fixpoints ran under summaries just replaced. *)
      List.iter
        (fun ((p : Prog.proc), ctx) ->
          Hashtbl.replace solutions p.Prog.entry
            (ctx.cfg, analyze_ctx ~call:(call_into tbl) ctx))
        analysable
    end
    else begin
      let changed = ref false in
      List.iter
        (fun ((p : Prog.proc), ctx) ->
          if stale p ctx then begin
            Hashtbl.replace solved_at p.Prog.entry (tick ());
            let prev = Hashtbl.find tbl p.Prog.entry in
            let next, sol = summarize tbl prog ctx in
            Hashtbl.replace solutions p.Prog.entry (ctx.cfg, sol);
            (* Monotone accumulation: never lose what a previous round
               established, even if a dependency's refinement shuffles
               this round's recomputation. *)
            let ret_env = Array.copy prev.ret_env in
            join_into ~thresholds:ctx.thresholds ret_env next.ret_env;
            let merged =
              { may_defs = Regset.union prev.may_defs next.may_defs; ret_env }
            in
            if
              not
                (Regset.equal prev.may_defs merged.may_defs
                && env_leq merged.ret_env prev.ret_env)
            then begin
              changed := true;
              Hashtbl.replace tbl p.Prog.entry merged;
              Hashtbl.replace updated p.Prog.entry (tick ())
            end
          end)
        analysable;
      (* After a round that changed nothing, every procedure's last
         fixpoint ran under its callees' final entries: those are the
         solutions [solve] returns. *)
      if !changed then iterate (round + 1)
    end
  in
  iterate 1;
  { summaries = tbl; solutions }

let pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Iv { lo; hi } ->
    let e ppf v =
      if v = min_int then Fmt.string ppf "-∞"
      else if v = max_int then Fmt.string ppf "+∞"
      else Fmt.int ppf v
    in
    Fmt.pf ppf "[%a, %a]" e lo e hi
