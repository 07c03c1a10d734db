(* Open-addressing int-keyed int map for the oracle's data memory.

   [Hashtbl] costs a generic hash, a structural key compare and an
   option allocation per probe; this map is a power-of-two table with
   multiplicative hashing and linear probing — allocation-free lookups,
   no single-key deletion (the oracle only writes and reads memory; a
   wrong-path store overlay is dropped whole with [clear]). Lookup of an
   absent key yields [default], matching the "unwritten memory reads 0"
   semantics. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : Bytes.t; (* '\001' = slot occupied *)
  mutable mask : int;     (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create n =
  let cap = pow2 (if n < 16 then 16 else n) 16 in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    used = Bytes.make cap '\000';
    mask = cap - 1;
    count = 0;
  }

(* Fibonacci hashing; keys are arbitrary ints (addresses may be
   negative in randomly generated programs). *)
let slot_of t k = (k * 0x2545F4914F6CDD1D) land t.mask

(* The slot holding [k], or the free slot ending its probe run. *)
let slot t k =
  let i = ref (slot_of t k) in
  while
    Bytes.unsafe_get t.used !i = '\001' && Array.unsafe_get t.keys !i <> k
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t k ~default =
  let i = slot t k in
  if Bytes.unsafe_get t.used i = '\001' then Array.unsafe_get t.vals i
  else default

let mem t k = Bytes.unsafe_get t.used (slot t k) = '\001'

let rec replace t k v =
  let i = slot t k in
  if Bytes.unsafe_get t.used i = '\001' then t.vals.(i) <- v
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    (* Keep the load factor under 1/2: rehash into a doubled table. *)
    let okeys = t.keys and ovals = t.vals and oused = t.used in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.used <- Bytes.make cap '\000';
    t.mask <- cap - 1;
    t.count <- 0;
    for j = 0 to Array.length okeys - 1 do
      if Bytes.unsafe_get oused j = '\001' then replace t okeys.(j) ovals.(j)
    done;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    Bytes.unsafe_set t.used i '\001';
    t.count <- t.count + 1
  end

let count t = t.count

(* Drop every binding, keeping the capacity. *)
let clear t =
  if t.count > 0 then begin
    Bytes.fill t.used 0 (Bytes.length t.used) '\000';
    t.count <- 0
  end

let iter f t =
  for i = 0 to t.mask do
    if Bytes.unsafe_get t.used i = '\001' then f t.keys.(i) t.vals.(i)
  done
