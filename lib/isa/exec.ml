(* Functional (oracle) executor.

   The timing simulator is execution-driven in the SimpleScalar style: the
   functional core runs each instruction as it is fetched, producing the
   dynamic stream (branch outcomes, memory addresses, halt) that the timing
   model then schedules. The oracle only ever runs the correct path; the
   pipeline's wrong-path frontend runs [datapath] — the same function
   [step] runs for every non-control effect — on a [shadow] state whose
   stores land in an overlay and never reach the oracle's memory.

   Arithmetic is total: integer division by zero yields 0, as does a shift
   by an out-of-range amount, so that randomly generated programs cannot
   fault. Loads from unwritten addresses return 0. *)

type dyn = {
  sn : int;       (* dynamic sequence number, from 0 *)
  pc : int;
  instr : Instr.t;
  next_pc : int;  (* address of the next dynamic instruction *)
  taken : bool;   (* control instructions: was the branch/jump taken *)
  addr : int;     (* memory effective address, -1 for non-memory ops *)
}

type state = {
  prog : Prog.t;
  iregs : int array;
  fregs : float array;
  imem : Intmap.t; (* open addressing: allocation-free loads *)
  fmem : (int, float) Hashtbl.t;
  base : state option;
      (* a shadow's backing state: [imem]/[fmem] are then a store
         overlay, and an address the overlay lacks reads [base]'s memory *)
  mutable stack : int list; (* return addresses *)
  mutable pc : int;
  mutable steps : int;
  mutable halted : bool;
  (* [step] scratch: OCaml would box [ref] cells, so the per-instruction
     outcome fields live on the state instead (DESIGN.md §13) *)
  mutable d_next_pc : int;
  mutable d_taken : bool;
  mutable d_addr : int;
}

(* Memory tables start small and double as stores fill them: every
   pipeline builds a state, and most runs touch little memory. *)
let make prog base =
  {
    prog;
    iregs = Array.make Reg.num_int 0;
    fregs = Array.make Reg.num_fp 0.;
    imem = Intmap.create 64;
    fmem = Hashtbl.create 16;
    base;
    stack = [];
    pc = prog.Prog.entry;
    steps = 0;
    halted = false;
    d_next_pc = 0;
    d_taken = false;
    d_addr = -1;
  }

let create prog = make prog None
let shadow base = make base.prog (Some base)

(* Re-seed a shadow from its base: copy the registers, drop the overlay. *)
let fork t =
  match t.base with
  | None -> invalid_arg "Exec.fork: not a shadow state"
  | Some b ->
    Array.blit b.iregs 0 t.iregs 0 (Array.length t.iregs);
    Array.blit b.fregs 0 t.fregs 0 (Array.length t.fregs);
    Intmap.clear t.imem;
    if Hashtbl.length t.fmem > 0 then Hashtbl.reset t.fmem

let rec peek t addr =
  match t.base with
  | Some b when not (Intmap.mem t.imem addr) -> peek b addr
  | _ -> Intmap.find t.imem addr ~default:0

let poke t addr v = Intmap.replace t.imem addr v

let rec fpeek t addr =
  match Hashtbl.find_opt t.fmem addr with
  | Some v -> v
  | None -> ( match t.base with Some b -> fpeek b addr | None -> 0.)

let fpoke t addr v = Hashtbl.replace t.fmem addr v

let ireg t r = if r = 0 then 0 else t.iregs.(r)
let set_ireg t r v = if r <> 0 then t.iregs.(r) <- v

let src1_int t (i : Instr.t) =
  match i.src1 with Some (Reg.Int r) -> ireg t r | _ -> 0

let src2_int t (i : Instr.t) =
  match i.src2 with Some (Reg.Int r) -> ireg t r | _ -> 0

let src1_fp t (i : Instr.t) =
  match i.src1 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

let src2_fp t (i : Instr.t) =
  match i.src2 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

let write_int t (i : Instr.t) v =
  match i.dst with
  | Some (Reg.Int r) -> set_ireg t r v
  | Some (Reg.Fp _) | None -> ()

let write_fp t (i : Instr.t) v =
  match i.dst with
  | Some (Reg.Fp r) -> t.fregs.(r) <- v
  | Some (Reg.Int _) | None -> ()

let shift_ok n = n >= 0 && n < 63

(* Every non-control effect of [i]: register results, loads and stores,
   and [d_addr] (-1 for non-memory ops). Control instructions, [Nop],
   [Iqset] and [Halt] change nothing here. *)
let datapath t (i : Instr.t) =
  t.d_addr <- -1;
  match i.op with
  | Opcode.Add -> write_int t i (src1_int t i + src2_int t i)
  | Opcode.Sub -> write_int t i (src1_int t i - src2_int t i)
  | Opcode.And -> write_int t i (src1_int t i land src2_int t i)
  | Opcode.Or -> write_int t i (src1_int t i lor src2_int t i)
  | Opcode.Xor -> write_int t i (src1_int t i lxor src2_int t i)
  | Opcode.Shl ->
    let n = src2_int t i in
    write_int t i (if shift_ok n then src1_int t i lsl n else 0)
  | Opcode.Shr ->
    let n = src2_int t i in
    write_int t i (if shift_ok n then src1_int t i lsr n else 0)
  | Opcode.Slt -> write_int t i (if src1_int t i < src2_int t i then 1 else 0)
  | Opcode.Sle -> write_int t i (if src1_int t i <= src2_int t i then 1 else 0)
  | Opcode.Seq -> write_int t i (if src1_int t i = src2_int t i then 1 else 0)
  | Opcode.Sne -> write_int t i (if src1_int t i <> src2_int t i then 1 else 0)
  | Opcode.Addi -> write_int t i (src1_int t i + i.imm)
  | Opcode.Andi -> write_int t i (src1_int t i land i.imm)
  | Opcode.Ori -> write_int t i (src1_int t i lor i.imm)
  | Opcode.Xori -> write_int t i (src1_int t i lxor i.imm)
  | Opcode.Shli ->
    write_int t i (if shift_ok i.imm then src1_int t i lsl i.imm else 0)
  | Opcode.Shri ->
    write_int t i (if shift_ok i.imm then src1_int t i lsr i.imm else 0)
  | Opcode.Slti -> write_int t i (if src1_int t i < i.imm then 1 else 0)
  | Opcode.Li -> write_int t i i.imm
  | Opcode.Mov -> write_int t i (src1_int t i)
  | Opcode.Mul -> write_int t i (src1_int t i * src2_int t i)
  | Opcode.Div ->
    let d = src2_int t i in
    write_int t i (if d = 0 then 0 else src1_int t i / d)
  | Opcode.Fadd -> write_fp t i (src1_fp t i +. src2_fp t i)
  | Opcode.Fsub -> write_fp t i (src1_fp t i -. src2_fp t i)
  | Opcode.Fmul -> write_fp t i (src1_fp t i *. src2_fp t i)
  | Opcode.Fdiv ->
    let d = src2_fp t i in
    write_fp t i (if d = 0. then 0. else src1_fp t i /. d)
  | Opcode.Fli -> write_fp t i (float_of_int i.imm /. 1000.)
  | Opcode.Fmov -> write_fp t i (src1_fp t i)
  | Opcode.Itof -> write_fp t i (float_of_int (src1_int t i))
  | Opcode.Ftoi -> write_int t i (int_of_float (src1_fp t i))
  | Opcode.Load ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    write_int t i (peek t a)
  | Opcode.Store ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    poke t a (src2_int t i)
  | Opcode.Fload ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    write_fp t i (fpeek t a)
  | Opcode.Fstore ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    fpoke t a (src2_fp t i)
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge | Opcode.Jmp
  | Opcode.Call | Opcode.Ret | Opcode.Nop | Opcode.Iqset | Opcode.Halt -> ()

(* Execute the instruction at [t.pc]; returns [None] once halted. *)
let step t : dyn option =
  if t.halted then None
  else if t.pc < 0 || t.pc >= Array.length t.prog.Prog.code then (
    t.halted <- true;
    None)
  else begin
    let pc = t.pc in
    let i = t.prog.Prog.code.(pc) in
    let sn = t.steps in
    t.steps <- sn + 1;
    let fallthrough = pc + 1 in
    t.d_next_pc <- fallthrough;
    t.d_taken <- false;
    datapath t i;
    (match i.op with
    | Opcode.Beq ->
      if src1_int t i = src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Bne ->
      if src1_int t i <> src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Blt ->
      if src1_int t i < src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Bge ->
      if src1_int t i >= src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Jmp ->
      t.d_taken <- true;
      t.d_next_pc <- i.target
    | Opcode.Call ->
      t.d_taken <- true;
      t.stack <- fallthrough :: t.stack;
      t.d_next_pc <- i.target
    | Opcode.Ret -> (
      t.d_taken <- true;
      match t.stack with
      | ra :: rest ->
        t.stack <- rest;
        t.d_next_pc <- ra
      | [] -> t.halted <- true (* return from the entry procedure *))
    | Opcode.Halt -> t.halted <- true
    | _ -> ());
    t.pc <- t.d_next_pc;
    Some
      {
        sn;
        pc;
        instr = i;
        next_pc = t.d_next_pc;
        taken = t.d_taken;
        addr = t.d_addr;
      }
  end

(* Run to completion (or [max_steps]); returns the number of executed
   instructions. *)
let run ?(max_steps = 10_000_000) t =
  let rec loop n =
    if n >= max_steps then n
    else
      match step t with
      | None -> n
      | Some _ -> loop (n + 1)
  in
  loop 0
