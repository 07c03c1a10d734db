(* Banked physical register file with a free list and per-bank activity
   tracking (Section 5.2.3).

   Delaying dispatch means fewer registers are live at once; banking the
   file and turning off banks holding no live register saves static power
   and the dynamic precharge of their bitlines. Allocation prefers the
   lowest-numbered free register so live registers cluster into few banks,
   maximising the number of banks that can be gated off.

   Bookkeeping is incremental (DESIGN.md §13): [free_head] tracks the
   lowest-numbered free register so allocation needs no O(size) scan, and
   [bank_live] counts live registers per bank so the powered-bank mask is
   O(banks) per cycle. The checker recounts both from the raw [free]
   array. *)

type t = {
  size : int;
  bank_size : int;
  free : bool array;
  ready : bool array;    (* value has been produced *)
  bank_live : int array; (* live registers per bank, kept incrementally *)
  bank_of : int array;   (* register -> bank, precomputed *)
  mutable live_mask : int; (* bit b set iff bank_live.(b) > 0 *)
  mutable live_banks : int; (* popcount of live_mask, kept incrementally *)
  mutable free_head : int; (* lowest-numbered free register; [size] if none *)
  mutable free_count : int;
  (* statistics *)
  mutable reads : int;
  mutable writes : int;
  mutable allocs : int;
  mutable alloc_failures : int;
}

let create ~size ~bank_size =
  if size <= 0 || bank_size <= 0 then invalid_arg "Regfile.create";
  {
    size;
    bank_size;
    free = Array.make size true;
    ready = Array.make size false;
    bank_live = Array.make ((size + bank_size - 1) / bank_size) 0;
    bank_of = Array.init size (fun i -> i / bank_size);
    live_mask = 0;
    live_banks = 0;
    free_head = 0;
    free_count = size;
    reads = 0;
    writes = 0;
    allocs = 0;
    alloc_failures = 0;
  }

let banks t = (t.size + t.bank_size - 1) / t.bank_size

let free_count t = t.free_count
let live_count t = t.size - t.free_count

let mark_live t i =
  t.free.(i) <- false;
  let b = Array.unsafe_get t.bank_of i in
  let c = t.bank_live.(b) + 1 in
  t.bank_live.(b) <- c;
  if c = 1 then begin
    t.live_mask <- t.live_mask lor (1 lsl b);
    t.live_banks <- t.live_banks + 1
  end;
  t.free_count <- t.free_count - 1;
  if i = t.free_head then begin
    let j = ref (i + 1) in
    while !j < t.size && not t.free.(!j) do
      incr j
    done;
    t.free_head <- !j
  end

(* Allocate the lowest-numbered free register, or -1 when none is free
   (allocation-free: the pipeline's rename path). The value is not ready
   until [write] marks it so. *)
let alloc_idx t =
  if t.free_count = 0 then begin
    t.alloc_failures <- t.alloc_failures + 1;
    -1
  end
  else if t.free_head >= t.size then
    (* free_count > 0 yet no free slot: the count has drifted from the
       free array — a conservation bug upstream (double release or a
       release bypassing this module). *)
    failwith
      (Printf.sprintf
         "Regfile.alloc: free_count=%d but the free list has no free \
          register (size=%d)"
         t.free_count t.size)
  else begin
    let i = t.free_head in
    t.ready.(i) <- false;
    mark_live t i;
    t.allocs <- t.allocs + 1;
    i
  end

(* Allocate a specific register (initial architectural mapping). *)
let alloc_exact t i =
  if i < 0 || i >= t.size then invalid_arg "Regfile.alloc_exact";
  if not t.free.(i) then invalid_arg "Regfile.alloc_exact: not free";
  mark_live t i

let release t i =
  if i < 0 || i >= t.size then invalid_arg "Regfile.release";
  if t.free.(i) then invalid_arg "Regfile.release: double free";
  t.free.(i) <- true;
  t.ready.(i) <- false;
  let b = Array.unsafe_get t.bank_of i in
  let c = t.bank_live.(b) - 1 in
  t.bank_live.(b) <- c;
  if c = 0 then begin
    t.live_mask <- t.live_mask land lnot (1 lsl b);
    t.live_banks <- t.live_banks - 1
  end;
  t.free_count <- t.free_count + 1;
  if i < t.free_head then t.free_head <- i

let is_ready t i = t.ready.(i)

let mark_ready t i =
  t.ready.(i) <- true;
  t.writes <- t.writes + 1

let note_read t = t.reads <- t.reads + 1

(* Bitmask of banks holding at least one live (allocated) register; only
   these need to be powered. Maintained incrementally on the 0↔1
   transitions of [bank_live] (the invariant checker recounts both from
   the raw [free] array). *)
let banks_on_mask t = t.live_mask
let banks_on t = t.live_banks
