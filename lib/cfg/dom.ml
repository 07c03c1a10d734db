(* Dominator computation: the classic iterative dataflow formulation over
   bitsets. Procedures in this code base have at most a few hundred blocks,
   so the simple O(n^2) fixpoint is more than fast enough. *)

type t = {
  dom : bool array array; (* dom.(b).(d) = block d dominates block b *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.num_blocks cfg in
  let dom = Array.init n (fun _ -> Array.make n true) in
  (* Entry is dominated only by itself. *)
  dom.(0) <- Array.make n false;
  dom.(0).(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      let preds = Cfg.preds cfg b in
      let inter = Array.make n (preds <> []) in
      List.iter
        (fun p ->
          for d = 0 to n - 1 do
            if not dom.(p).(d) then inter.(d) <- false
          done)
        preds;
      inter.(b) <- true;
      if inter <> dom.(b) then begin
        dom.(b) <- inter;
        changed := true
      end
    done
  done;
  { dom }

(* [dominates t d b] is true when block [d] dominates block [b]. *)
let dominates t d b = t.dom.(b).(d)

