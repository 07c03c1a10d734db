(* Integer histograms with exact totals.

   The buckets quantise; the (count, sum, min, max) sidecar does not,
   so means and totals read from a histogram are exact. Merge is
   component-wise sum/min/max, hence associative and commutative —
   the property the sharded campaign merge relies on (and that the
   qcheck suite pins). *)

type kind =
  | Linear of { width : int; buckets : int }
  | Log2 of { buckets : int }

type t = {
  kind : kind;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_ : int; (* max_int when empty *)
  mutable max_ : int; (* min_int when empty *)
}

let num_buckets = function
  | Linear { buckets; _ } | Log2 { buckets } -> buckets

let create kind =
  (match kind with
  | Linear { width; buckets } ->
    if width <= 0 then invalid_arg "Hist.create: width must be positive";
    if buckets <= 0 then invalid_arg "Hist.create: buckets must be positive"
  | Log2 { buckets } ->
    if buckets <= 0 then invalid_arg "Hist.create: buckets must be positive");
  {
    kind;
    buckets = Array.make (num_buckets kind) 0;
    count = 0;
    sum = 0;
    min_ = max_int;
    max_ = min_int;
  }

let kind t = t.kind

let bucket_index kind v =
  let v = max 0 v in
  let n = num_buckets kind in
  match kind with
  | Linear { width; _ } -> min (v / width) (n - 1)
  | Log2 _ ->
    if v = 0 then 0
    else begin
      (* floor(log2 v) + 1, clamped into the last bucket *)
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
      min (go 1 v) (n - 1)
    end

let observe ?(n = 1) t v =
  if n < 0 then invalid_arg "Hist.observe: negative occurrence count";
  if n > 0 then begin
    let v = max 0 v in
    let i = bucket_index t.kind v in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.count <- t.count + n;
    t.sum <- t.sum + (n * v);
    if v < t.min_ then t.min_ <- v;
    if v > t.max_ then t.max_ <- v
  end

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_
let max_value t = if t.count = 0 then 0 else t.max_
let buckets t = Array.copy t.buckets

let same_shape a b = a.kind = b.kind

let merge a b =
  if not (same_shape a b) then invalid_arg "Hist.merge: shape mismatch";
  {
    kind = a.kind;
    buckets = Array.init (Array.length a.buckets) (fun i -> a.buckets.(i) + b.buckets.(i));
    count = a.count + b.count;
    sum = a.sum + b.sum;
    min_ = min a.min_ b.min_;
    max_ = max a.max_ b.max_;
  }

let equal a b =
  a.kind = b.kind && a.buckets = b.buckets && a.count = b.count
  && a.sum = b.sum && a.min_ = b.min_ && a.max_ = b.max_

let kind_string = function
  | Linear { width; buckets } -> Printf.sprintf "linear:%d:%d" width buckets
  | Log2 { buckets } -> Printf.sprintf "log2:%d" buckets

let to_string t =
  Printf.sprintf "%s|%s|count=%d sum=%d min=%d max=%d" (kind_string t.kind)
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.buckets)))
    t.count t.sum (min_value t) (max_value t)

let to_json t =
  let kind_fields =
    match t.kind with
    | Linear { width; buckets } ->
      Printf.sprintf {|"kind":"linear","width":%d,"buckets":%d|} width buckets
    | Log2 { buckets } -> Printf.sprintf {|"kind":"log2","buckets":%d|} buckets
  in
  Printf.sprintf {|{%s,"counts":[%s],"count":%d,"sum":%d,"min":%d,"max":%d}|}
    kind_fields
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.buckets)))
    t.count t.sum (min_value t) (max_value t)

