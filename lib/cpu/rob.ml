(* Reorder buffer: a circular buffer of in-flight instructions committed
   in program order. The speculative frontend pushes wrong-path
   instructions (flagged with a [wp] byte) behind a mispredicted branch;
   at resolution the pipeline squashes them by popping the tail,
   youngest first, so the buffer is always a contiguous program-order
   window and only ever shrinks from its two ends: head at commit, tail
   at squash.

   Storage is flat (DESIGN.md §13): each per-entry attribute lives in its
   own unboxed array — states, the blocked-fetch flag and the wrong-path
   flag as bytes, IQ and LSQ back-pointers as ints, and the destination /
   previous-mapping registers packed into single int codes — so push,
   wakeup and commit touch no option or record allocations. The [dyns]
   array holds the dynamic-instruction records themselves (produced once
   per instruction by the functional frontend); a free slot holds
   [dummy_dyn]. *)

open Sdiq_isa

type state =
  | Dispatched
  | Issued
  | Completed

type dest =
  | No_dest
  | Int_dest of int (* physical register *)
  | Fp_dest of int

(* Destinations packed into one int, as the rename stage writes them:
   0 = none, int register [p] as [2p + 1], fp register [p] as [2p + 2]. *)
let decode_dest = function
  | 0 -> No_dest
  | c when c land 1 = 1 -> Int_dest (c asr 1)
  | c -> Fp_dest ((c asr 1) - 1)

let dummy_dyn : Exec.dyn =
  {
    Exec.sn = -1;
    pc = -1;
    instr = Instr.make Opcode.Halt;
    next_pc = -1;
    taken = false;
    addr = 0;
  }

type t = {
  size : int;
  dyns : Exec.dyn array;
  states : Bytes.t;       (* 0 Dispatched, 1 Issued, 2 Completed *)
  dest_codes : int array;
  old_codes : int array;  (* previous mapping, freed at commit *)
  iq_slots : int array;   (* -1 once issued or never queued *)
  lsq_slots : int array;  (* -1 for non-memory instructions *)
  blocked : Bytes.t;      (* fetch is stalled on this instruction *)
  wp : Bytes.t;           (* fetched down the wrong path *)
  mutable head : int;
  mutable tail : int;
  mutable count : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Rob.create";
  {
    size;
    dyns = Array.make size dummy_dyn;
    states = Bytes.make size '\000';
    dest_codes = Array.make size 0;
    old_codes = Array.make size 0;
    iq_slots = Array.make size (-1);
    lsq_slots = Array.make size (-1);
    blocked = Bytes.make size '\000';
    wp = Bytes.make size '\000';
    head = 0;
    tail = 0;
    count = 0;
  }

let is_full t = t.count = t.size
let is_empty t = t.count = 0
let occupancy t = t.count

(* --- flat accessors ----------------------------------------------------- *)

let dyn t idx = Array.unsafe_get t.dyns idx

let state t idx : state =
  match Bytes.unsafe_get t.states idx with
  | '\000' -> Dispatched
  | '\001' -> Issued
  | _ -> Completed

let set_state t idx (s : state) =
  Bytes.unsafe_set t.states idx
    (match s with Dispatched -> '\000' | Issued -> '\001' | Completed -> '\002')

let is_completed t idx = Bytes.unsafe_get t.states idx = '\002'

(* Raw destination codes for the hot path; [decode_dest] recovers the
   typed view for observers. *)
let dest_code t idx = Array.unsafe_get t.dest_codes idx
let old_code t idx = Array.unsafe_get t.old_codes idx
let old_phys_of t idx = decode_dest (old_code t idx)

let iq_slot t idx = Array.unsafe_get t.iq_slots idx
let set_iq_slot t idx s = Array.unsafe_set t.iq_slots idx s

let lsq_slot t idx = Array.unsafe_get t.lsq_slots idx
let set_lsq_slot t idx s = Array.unsafe_set t.lsq_slots idx s

let blocked_fetch t idx = Bytes.unsafe_get t.blocked idx <> '\000'

let set_blocked_fetch t idx b =
  Bytes.unsafe_set t.blocked idx (if b then '\001' else '\000')

let is_wp t idx = Bytes.unsafe_get t.wp idx <> '\000'

(* Allocate the tail entry; returns its index. [push_codes] is the
   allocation-free form taking pre-encoded destination codes. *)
let push_codes t ~dyn ~dest_code ~old_code ~iq_slot ~wp =
  if is_full t then invalid_arg "Rob.push: full";
  let idx = t.tail in
  Array.unsafe_set t.dyns idx dyn;
  Bytes.unsafe_set t.states idx '\000';
  Array.unsafe_set t.dest_codes idx dest_code;
  Array.unsafe_set t.old_codes idx old_code;
  Array.unsafe_set t.iq_slots idx iq_slot;
  Array.unsafe_set t.lsq_slots idx (-1);
  Bytes.unsafe_set t.blocked idx '\000';
  Bytes.unsafe_set t.wp idx (if wp then '\001' else '\000');
  t.tail <- (if t.tail + 1 = t.size then 0 else t.tail + 1);
  t.count <- t.count + 1;
  idx

(* Commit primitives for the hot loop: test the head, read its index,
   pop it — without a per-commit closure. *)
let head_is_completed t = t.count > 0 && is_completed t t.head
let head_index t = t.head

let pop_head t =
  let idx = t.head in
  Array.unsafe_set t.dyns idx dummy_dyn;
  t.head <- (if t.head + 1 = t.size then 0 else t.head + 1);
  t.count <- t.count - 1

(* Squash primitives: the youngest in-flight entry (the one just below
   the tail pointer) and its removal. The pipeline pops wrong-path
   entries youngest-first, undoing each rename as it goes, so the map
   and free lists rewind in exactly the reverse of dispatch order. *)
let tail_index t =
  if t.count = 0 then invalid_arg "Rob.tail_index: empty";
  if t.tail = 0 then t.size - 1 else t.tail - 1

let pop_tail t =
  let idx = tail_index t in
  Array.unsafe_set t.dyns idx dummy_dyn;
  Bytes.unsafe_set t.wp idx '\000';
  t.tail <- idx;
  t.count <- t.count - 1

(* Iterate over in-flight entry indices from oldest to youngest. *)
let iter_in_flight t f =
  let pos = ref t.head in
  for _ = 1 to t.count do
    f !pos;
    pos := (if !pos + 1 = t.size then 0 else !pos + 1)
  done
