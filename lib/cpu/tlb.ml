(* Translation lookaside buffer: a small fully-associative cache of
   page translations with true-LRU replacement. The simulated ISA is
   flat-addressed, so no translation result is modelled — only the
   hit/miss timing and the miss traffic the power model prices. Two
   instances back the pipeline: an ITLB probed once per fetch-group
   page and a DTLB probed at load/store issue.

   Storage follows the flat hot-loop idiom (DESIGN.md §13): parallel
   int arrays for tags and last-use stamps, linear probe (the paper's
   machines hold 16 entries — a scan beats any map). *)

type t = {
  entries : int;
  page_shift : int;
  tags : int array;         (* virtual page number, [empty] when free *)
  stamps : int array;       (* last-use clock for LRU *)
  mutable clock : int;
  mutable lookups : int;
  mutable misses : int;
}

(* The tag of a free entry. Pages of at least 2 words shift the address
   right by at least one bit, so page numbers lie in
   [min_int/2, max_int/2] and none equals [empty]: a cold TLB never hits. *)
let empty = min_int

let create ~entries ~page_size =
  if entries <= 0 then invalid_arg "Tlb.create: entries";
  if page_size < 2 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Tlb.create: page_size must be a power of two, at least 2";
  let shift =
    let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
    go 0 page_size
  in
  {
    entries;
    page_shift = shift;
    tags = Array.make entries empty;
    stamps = Array.make entries 0;
    clock = 0;
    lookups = 0;
    misses = 0;
  }

(* [asr] floors, so words -page_size..-1 are page -1. *)
let page_of t addr = addr asr t.page_shift

(* Probe for [addr]'s page; on a miss, install it over the LRU entry.
   Returns [true] on a hit. *)
let access t addr =
  let page = page_of t addr in
  t.clock <- t.clock + 1;
  t.lookups <- t.lookups + 1;
  let hit = ref (-1) in
  for i = 0 to t.entries - 1 do
    if Array.unsafe_get t.tags i = page then hit := i
  done;
  if !hit >= 0 then begin
    Array.unsafe_set t.stamps !hit t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for i = 1 to t.entries - 1 do
      if Array.unsafe_get t.stamps i < Array.unsafe_get t.stamps !victim then
        victim := i
    done;
    Array.unsafe_set t.tags !victim page;
    Array.unsafe_set t.stamps !victim t.clock;
    false
  end

(* Warm the entry for [addr], discarding the hit/miss outcome: used by
   the sampling fast-forward, which must train the TLB exactly as
   detailed fetch/issue would but emits no events. *)
let train t addr = ignore (access t addr : bool)

let lookups t = t.lookups
let misses t = t.misses
