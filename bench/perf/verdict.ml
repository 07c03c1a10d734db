type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type t = Improved | Unchanged | Regressed | Unresolved

let name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let min_pairs = 10

let decide ~better ~bound ~parent ~change =
  let n = min (Array.length parent) (Array.length change) in
  if n < min_pairs then Unresolved
  else begin
    let parent = Array.sub parent 0 n and change = Array.sub change 0 n in
    (* Positive when [b] reads better than [a]. *)
    let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
    let wins = ref 0 in
    Array.iteri (fun i p -> if gain p change.(i) > 0. then incr wins) parent;
    let p = Summary.of_array parent and c = Summary.of_array change in
    let gap = gain p.Summary.median c.Summary.median in
    let separated =
      match better with
      | Lower -> c.Summary.max < p.Summary.min
      | Higher -> c.Summary.min > p.Summary.max
    in
    if 10 * !wins >= 9 * n && gap > p.Summary.q3 -. p.Summary.q1 then Improved
    else if -.gap > bound *. Float.abs p.Summary.median then Regressed
    else if separated then Unchanged
    else if Summary.rel_spread p > bound then Unresolved
    else Unchanged
  end
