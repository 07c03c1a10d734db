(* A workload: a program plus its memory initialiser.

   Each benchmark mimics the dominant character of its SPECint2000
   namesake (the paper's benchmark set, Section 5.1): instruction mix,
   branch behaviour, memory footprint and call density — the axes that
   drive the paper's per-benchmark variation. All initialisation is
   deterministic from a fixed per-benchmark seed. *)

open Sdiq_isa

type t = {
  name : string;
  description : string;
  prog : Prog.t;
  init : Exec.state -> unit;
}

(* [init] loads one image, built by the first call: the initialiser
   runs once per [t], into a scratch state's paged overlay, which
   [Exec.freeze] copies into the image every machine of the benchmark
   shares. The lock makes a first call on two
   domains at once build it once ([Lazy] would raise [Undefined] on the
   second domain). Nothing is built before the first call, so making the
   suite stays cheap. *)
let make ~name ~description ~build ~init =
  let b = Asm.create () in
  build b;
  let prog = Asm.assemble b ~entry:"main" in
  let lock = Mutex.create () and image = ref None in
  let frozen () =
    match !image with
    | Some im -> im
    | None ->
      let st = Exec.create prog in
      init st;
      let im = Exec.freeze st in
      image := Some im;
      im
  in
  let init st = Exec.load st (Mutex.protect lock frozen) in
  { name; description; prog; init }
