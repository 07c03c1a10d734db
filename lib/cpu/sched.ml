(* Select/wakeup scheduler policies — the third grid axis.

   The paper holds the scheduler fixed (oldest-first select over the
   whole ring, full CAM wakeup) and varies only the software-directed
   window. This module makes that fixed point pluggable, with the two
   knobs low-power schedulers actually turn:

   - the *select scan*: how many slots the picker examines per cycle
     (oldest-first walks the whole active ring; an N-skip picker bounds
     the walk to the N slots after [head] and gives up early, trading a
     little ILP for a much shorter selection scan);
   - the *wakeup CAM*: which waiting operands pay a comparison per
     broadcast (load-delay tracking predicts the ready cycle of every
     operand fed by a fixed-latency producer and suppresses its CAM
     port, leaving only load-fed operands — whose latency is
     unpredictable — on the match path; Diavastos & Carlson,
     arXiv 2109.03112).

   [Nskip] genuinely trades ILP for scan energy: the picker considers
   only the N slots after [head] (holes and waiting entries included),
   so ready instructions beyond the bound wait for the head region to
   drain and small N costs cycles — measurably so at N below the issue
   width, see the policy grid — while the scan integral drops by an
   order of magnitude. At N >= queue capacity the walk is exactly
   oldest-first's and the whole run is [Stats.equal] to it (pinned by a
   qcheck property). [Load_delay] is an energy-accounting change by
   construction — the predicted operand still wakes on the broadcast;
   only the CAM comparison it would have paid is counted as suppressed,
   so cycles and the committed stream are bit-identical to
   [Oldest_first] (gated by the policy grid). Timing bit-identity of
   [Oldest_first] against the pre-refactor pipeline is pinned by the
   golden grid. *)

type t =
  | Oldest_first
  | Nskip of int  (* scan at most N slots from [head], holes included *)
  | Load_delay

let oldest_first = Oldest_first

let nskip ~n =
  if n <= 0 then invalid_arg "Sched.nskip: scan bound must be positive";
  Nskip n

let load_delay = Load_delay
let default = Oldest_first

let name = function
  | Oldest_first -> "oldest_first"
  | Nskip n -> Printf.sprintf "nskip:%d" n
  | Load_delay -> "load_delay"

(* Stable string for memo keys; equals [name] (kept separate so a
   future parameterised policy can widen its key without renaming). *)
let key = name

let valid_names = [ "oldest_first"; "nskip:N"; "load_delay" ]

let of_string s =
  match s with
  | "oldest_first" -> Ok Oldest_first
  | "load_delay" -> Ok Load_delay
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "nskip" -> (
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      (* Canonical decimal only, so every accepted string is the [name]
         it parses to: "04", "+4", "0x4" and "4_" are rejected. *)
      match int_of_string_opt arg with
      | Some n when string_of_int n = arg ->
        if n > 0 then Ok (Nskip n)
        else
          Error (Printf.sprintf "nskip scan bound must be positive (got %d)" n)
      | _ ->
        Error (Printf.sprintf "nskip bound %S is not canonical decimal" arg))
    | _ ->
      Error
        (Printf.sprintf "unknown policy %S (valid: %s)" s
           (String.concat ", " valid_names)))

(* Slots the select scan may examine per cycle on a queue whose active
   ring holds [active] slots. *)
let scan_bound t ~active =
  match t with
  | Oldest_first | Load_delay -> active
  | Nskip n -> min n active

(* Does this policy suppress the CAM ports of predicted-ready waiting
   operands? (Only [Load_delay]; the suppressed comparisons are counted
   in [Stats.iq_wakeups_suppressed] instead of the gated integral.) *)
let suppresses_predicted = function
  | Load_delay -> true
  | Oldest_first | Nskip _ -> false

let pp ppf t = Format.pp_print_string ppf (name t)
