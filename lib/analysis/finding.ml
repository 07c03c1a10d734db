(* Structured findings produced by the static-analysis passes. *)

type severity =
  | Error
  | Warning
  | Info

type t = {
  severity : severity;
  pass : string;
  proc : string;
  addr : int option;
  blocks : int list;
  message : string;
}

let make ?(proc = "") ?addr ?(blocks = []) severity ~pass message =
  { severity; pass; proc; addr; blocks; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (rank a.severity) (rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.proc b.proc in
    if c <> 0 then c else Stdlib.compare (a.addr, a.pass) (b.addr, b.pass)

let count s l = List.length (List.filter (fun f -> f.severity = s) l)
let errors l = count Error l
let warnings l = count Warning l
let infos l = count Info l
let is_clean l = errors l = 0

let pp ppf t =
  Fmt.pf ppf "%-7s %-18s %s%a%a: %s" (severity_name t.severity) t.pass
    (if t.proc = "" then "<program>" else t.proc)
    (fun ppf -> function Some a -> Fmt.pf ppf "@@%d" a | None -> ())
    t.addr
    (fun ppf -> function
      | [] -> ()
      | bs -> Fmt.pf ppf " [%a]" Fmt.(list ~sep:(any "->") (fmt "B%d")) bs)
    t.blocks t.message

(* Hand-rolled JSON: the schema is flat and the repo carries no JSON
   dependency. *)
let to_json ?(extra = []) t =
  let esc = Sdiq_util.Json.escape in
  Fmt.str
    "{%s\"severity\":\"%s\",\"pass\":\"%s\",\"proc\":\"%s\",\"addr\":%s,\"blocks\":[%a],\"message\":\"%s\"}"
    (String.concat ""
       (List.map
          (fun (k, v) -> Fmt.str "\"%s\":\"%s\"," (esc k) (esc v))
          extra))
    (severity_name t.severity) (esc t.pass) (esc t.proc)
    (match t.addr with Some a -> string_of_int a | None -> "null")
    Fmt.(list ~sep:(any ",") int)
    t.blocks (esc t.message)

let pp_summary ppf l =
  Fmt.pf ppf "%d errors, %d warnings, %d infos" (errors l) (warnings l)
    (infos l)
