(* Set-associative cache with LRU replacement.

   The simulator only needs latencies, not data: [access] returns whether
   the line was present and installs it. Timing of misses under
   contention is simplified to fixed latencies (no MSHR/bandwidth model),
   which is the usual academic-simulator treatment and is identical across
   the techniques being compared. *)

(* One [Chunked] row per set, so a short run allocates only the sets it
   touches: the ways' tags ([empty] = invalid), then their LRU stamps,
   then the cycle at which each line's data arrives. *)
type t = {
  sets : int;
  ways : int;
  line : int;       (* bytes *)
  lines : Chunked.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome =
  | Hit
  | Inflight of int (* remaining cycles until the line's fill completes *)
  | Miss

(* The tag of an invalid way. Line numbers are floored byte addresses
   over a line of at least 2 bytes, so they lie in [min_int/2, max_int/2]
   and none equals [empty]: a cold way can never hit. *)
let empty = min_int

let create ~sets ~ways ~line =
  if sets <= 0 || ways <= 0 || line < 2 then invalid_arg "Cache.create";
  let template =
    Array.init (3 * ways) (fun k -> if k < ways then empty else 0)
  in
  {
    sets;
    ways;
    line;
    lines = Chunked.create ~rows:sets ~template;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let hits t = t.hits
let misses t = t.misses

(* Floor division: byte addresses -line..-1 are line -1, not line 0. *)
let line_key t addr =
  if addr >= 0 then addr / t.line else ((addr + 1) / t.line) - 1

(* [probe t ~now addr]: tag-match the line. A miss installs it (LRU
   eviction) with fill time [now]; the caller is expected to push the fill
   time out with [set_fill] once it knows the total miss latency, so later
   accesses to the still-in-flight line see [Inflight] rather than a free
   hit — an MSHR-style merge, without which dependent-pointer chases would
   wrongly ride on their own line fills. *)
let probe t ~now addr =
  let line_addr = line_key t addr in
  let set =
    let m = line_addr mod t.sets in
    if m < 0 then m + t.sets else m
  in
  let tag = line_addr in
  t.clock <- t.clock + 1;
  let ways = t.ways in
  let row = Chunked.chunk t.lines set and base = Chunked.base t.lines set in
  let stamps = base + ways and fills = base + (2 * ways) in
  (* Closure-free tag match: this runs for every fetch cycle, load issue
     and store commit. *)
  let w = ref 0 in
  while !w < ways && row.(base + !w) <> tag do
    incr w
  done;
  if !w < ways then begin
    let w = !w in
    row.(stamps + w) <- t.clock;
    if row.(fills + w) > now then begin
      t.misses <- t.misses + 1;
      Inflight (row.(fills + w) - now)
    end
    else begin
      t.hits <- t.hits + 1;
      Hit
    end
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict LRU. *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if row.(stamps + w) < row.(stamps + !victim) then victim := w
    done;
    row.(base + !victim) <- tag;
    row.(stamps + !victim) <- t.clock;
    row.(fills + !victim) <- now;
    Miss
  end

(* Record when the just-missed line's data will arrive. *)
let set_fill t addr time =
  let line_addr = line_key t addr in
  let set = ((line_addr mod t.sets) + t.sets) mod t.sets in
  let row = Chunked.chunk t.lines set and base = Chunked.base t.lines set in
  for w = 0 to t.ways - 1 do
    if row.(base + w) = line_addr then row.(base + (2 * t.ways) + w) <- time
  done

(* Untimed access: true on (settled) hit; misses install instantly. Used
   by unit tests and by accesses whose latency is not modelled. *)
let access t addr =
  match probe t ~now:0 addr with
  | Hit -> true
  | Inflight _ | Miss -> false
