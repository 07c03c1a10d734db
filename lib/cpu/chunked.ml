(* Fixed-width int rows, materialised a chunk at a time.

   The Table 1 machine carries ~43k words of cache and BTB state, and
   a run touches a small fraction of it unless it runs for a long time.
   Allocated up front, that state would make every [Pipeline.create]
   pay for ~340KB of major-heap allocation, and for the collector work
   that allocation paces: a fixed per-run cost that dominates short
   runs.
   Here rows are grouped into chunks small enough for the minor heap,
   each filled from the row template the first time any of its rows is
   touched. An untouched row reads as the template, so the table
   behaves exactly like one filled eagerly. *)

type t = {
  width : int;
  template : int array; (* one row's initial contents *)
  shift : int; (* log2 of the rows per chunk *)
  chunks : int array array; (* [||] until first touched *)
}

(* Max_young_wosize: blocks up to this size are minor-heap allocations. *)
let chunk_words = 256

let create ~rows ~template =
  let width = Array.length template in
  if rows <= 0 || width <= 0 then invalid_arg "Chunked.create";
  (* As many rows per chunk as fit in [chunk_words], and at least one. *)
  let rec fit s = if (2 lsl s) * width <= chunk_words then fit (s + 1) else s in
  let shift = fit 0 in
  let per = 1 lsl shift in
  {
    width;
    template = Array.copy template;
    shift;
    chunks = Array.make ((rows + per - 1) / per) [||];
  }

let materialise t i =
  let per = 1 lsl t.shift in
  let c = Array.make (per * t.width) 0 in
  for k = 0 to per - 1 do
    Array.blit t.template 0 c (k * t.width) t.width
  done;
  t.chunks.(i) <- c;
  c

let chunk t r =
  let i = r asr t.shift in
  let c = t.chunks.(i) in
  if Array.length c > 0 then c else materialise t i

let base t r = (r land ((1 lsl t.shift) - 1)) * t.width
