(* Open-addressing int-keyed int map: the data memory's page table and
   its side table of int words off the 4-byte grid ([Store]).

   [Hashtbl] costs a generic hash, a structural key compare and an
   option allocation per probe; this map is a power-of-two table with
   multiplicative hashing and linear probing — allocation-free lookups,
   no single-key deletion (a store only grows, and a wrong-path store
   overlay is dropped whole with [clear]). A slot is a key and its value
   side by side in one [int array], so a probe reads one cache line; a
   free slot holds the key [min_int], which is never bound: neither a
   page number ([addr asr 7]) nor an address off the 4-byte grid can
   equal it. *)

type t = {
  mutable slots : int array; (* key at [2i], value at [2i + 1] *)
  mutable mask : int;        (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

let free = min_int
let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create n =
  let cap = pow2 (if n < 16 then 16 else n) 16 in
  { slots = Array.make (2 * cap) free; mask = cap - 1; count = 0 }

(* Fibonacci hashing; keys are arbitrary ints (addresses may be
   negative in randomly generated programs). *)
let slot_of t k = (k * 0x2545F4914F6CDD1D) land t.mask

(* The slot holding [k], or the free slot ending its probe run. *)
let slot t k =
  let i = ref (slot_of t k) in
  while
    let key = Array.unsafe_get t.slots (2 * !i) in
    key <> k && key <> free
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t k ~default =
  let i = slot t k in
  if Array.unsafe_get t.slots (2 * i) = k then
    Array.unsafe_get t.slots ((2 * i) + 1)
  else default

let find_slot t k =
  let i = slot t k in
  if Array.unsafe_get t.slots (2 * i) = k then i else -1

let mem t k = find_slot t k >= 0

let slot_value t i = Array.unsafe_get t.slots ((2 * i) + 1)

let rec replace t k v =
  if k = free then invalid_arg "Intmap.replace: min_int is not a key";
  let i = slot t k in
  if t.slots.(2 * i) = k then t.slots.((2 * i) + 1) <- v
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    (* Keep the load factor under 1/2: rehash into a doubled table. *)
    let old = t.slots in
    let cap = 2 * (t.mask + 1) in
    t.slots <- Array.make (2 * cap) free;
    t.mask <- cap - 1;
    t.count <- 0;
    for j = 0 to (Array.length old / 2) - 1 do
      if old.(2 * j) <> free then replace t old.(2 * j) old.((2 * j) + 1)
    done;
    replace t k v
  end
  else begin
    t.slots.(2 * i) <- k;
    t.slots.((2 * i) + 1) <- v;
    t.count <- t.count + 1
  end

let count t = t.count

(* Drop every binding, keeping the capacity. *)
let clear t =
  if t.count > 0 then begin
    Array.fill t.slots 0 (Array.length t.slots) free;
    t.count <- 0
  end

let iter f t =
  for i = 0 to t.mask do
    let k = t.slots.(2 * i) in
    if k <> free then f k t.slots.((2 * i) + 1)
  done
