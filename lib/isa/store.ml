(* A paged word store: the oracle's data memory, in the shape of
   SimpleScalar's simulated address space (pages allocated on first
   touch). One type serves a machine's store overlay, a wrong-path
   shadow's overlay and a benchmark's frozen image.

   Word-aligned int words live in 32-word pages (128 bytes of simulated
   memory). A page is one [int array] of [page_words + 1] cells: the 32
   words, then a written-mask whose bit [k] says word [k] was stored,
   so a stored 0 still shadows whatever lies below the store. A page
   table maps the page number ([addr asr 7]) to the page's index in
   [pages]. Int words off the 4-byte grid live in a side table and fp
   words in a [Hashtbl]: no benchmark's initial memory holds either.

   [clear] drops the page table but keeps the page arrays: a shadow
   forked on every mispredict then stores into the pages its earlier
   episodes allocated, each reset (mask 0) as it is taken again. Pages
   stay small so that a machine touching one or two of them (a random
   program) pays for little more than that. *)

let page_words = 32
let mask_cell = page_words
let page_number addr = addr asr 7
let slot addr = (addr lsr 2) land (page_words - 1)
let word_addr page k = (page lsl 7) lor (k lsl 2)

type t = {
  table : Intmap.t; (* page number -> index into [pages] *)
  mutable pages : int array array;
      (* [0, used) are live; the allocated arrays past [used] wait for
         reuse, the rest of the capacity is [[||]] *)
  mutable used : int;
  loose : Intmap.t; (* int words off the 4-byte grid *)
  floats : (int, float) Hashtbl.t;
}

let create () =
  {
    table = Intmap.create 16;
    pages = [||];
    used = 0;
    loose = Intmap.create 16;
    floats = Hashtbl.create 1;
  }

(* The word at [addr], or [miss x addr] when [s] holds none there. The
   caller passes what lies below as [miss] and [x], so a read through
   several stores allocates nothing. An empty table is passed without
   hashing: a wrong-path shadow's overlay, the image of a state that
   loaded none and every image's side table are mostly empty. *)
let find s addr miss x =
  if addr land 3 = 0 then begin
    if s.used = 0 then miss x addr
    else
      let i = Intmap.find s.table (page_number addr) ~default:(-1) in
      if i < 0 then miss x addr
      else
        let p = Array.unsafe_get s.pages i and k = slot addr in
        if Array.unsafe_get p mask_cell land (1 lsl k) <> 0 then
          Array.unsafe_get p k
        else miss x addr
  end
  else if Intmap.count s.loose = 0 then miss x addr
  else
    let i = Intmap.find_slot s.loose addr in
    if i >= 0 then Intmap.slot_value s.loose i else miss x addr

let find_float s addr miss x =
  if Hashtbl.length s.floats = 0 then miss x addr
  else
    match Hashtbl.find_opt s.floats addr with
    | Some v -> v
    | None -> miss x addr

let mem s addr =
  if addr land 3 = 0 then
    let i = Intmap.find s.table (page_number addr) ~default:(-1) in
    i >= 0 && s.pages.(i).(mask_cell) land (1 lsl slot addr) <> 0
  else Intmap.mem s.loose addr

let mem_float s addr = Hashtbl.mem s.floats addr

(* A page for page number [n], which the table lacks: taken from the
   reuse list (mask reset) or freshly allocated. Kept out of line, so
   that the callers of [set] inline only the table probe. *)
let[@inline never] add_page s n =
  let i = s.used in
  if i = Array.length s.pages then begin
    let grown = Array.make (Int.max 4 (2 * i)) [||] in
    Array.blit s.pages 0 grown 0 i;
    s.pages <- grown
  end;
  let p = s.pages.(i) in
  let p =
    if Array.length p = 0 then begin
      let p = Array.make (page_words + 1) 0 in
      s.pages.(i) <- p;
      p
    end
    else (p.(mask_cell) <- 0; p)
  in
  s.used <- i + 1;
  Intmap.replace s.table n i;
  p

let page s n =
  let i = Intmap.find s.table n ~default:(-1) in
  if i >= 0 then Array.unsafe_get s.pages i else add_page s n

let set s addr v =
  if addr land 3 = 0 then begin
    let p = page s (page_number addr) and k = slot addr in
    Array.unsafe_set p k v;
    Array.unsafe_set p mask_cell (Array.unsafe_get p mask_cell lor (1 lsl k))
  end
  else Intmap.replace s.loose addr v

let set_float s addr v = Hashtbl.replace s.floats addr v

let is_empty s =
  s.used = 0 && Intmap.count s.loose = 0 && Hashtbl.length s.floats = 0

let clear s =
  Intmap.clear s.table;
  s.used <- 0;
  Intmap.clear s.loose;
  if Hashtbl.length s.floats > 0 then Hashtbl.reset s.floats

let iter s ~int ~float =
  Intmap.iter
    (fun n i ->
      let p = s.pages.(i) in
      for k = 0 to page_words - 1 do
        if p.(mask_cell) land (1 lsl k) <> 0 then int (word_addr n k) p.(k)
      done)
    s.table;
  Intmap.iter int s.loose;
  Hashtbl.iter float s.floats
