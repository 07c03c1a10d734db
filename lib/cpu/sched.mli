(** Select/wakeup scheduler policies — the third grid axis, orthogonal
    to the benchmark and the window-resizing {!Technique}/{!Policy}.

    [Oldest_first] is the paper's fixed scheduler: select by walking the
    whole active ring oldest-first, full CAM wakeup. [Nskip n] bounds
    the select scan to the [n] slots after [head] (holes included) with
    an early-out — the classic low-power picker; the per-entry scan cost
    it saves is priced via the [Select_scan] event and
    [Params.e_scan_entry]. [Load_delay] keeps the full scan but
    suppresses the wakeup CAM ports of waiting operands whose producer
    has a deterministic latency (every non-load), per load-delay
    ready-time tracking (arXiv 2109.03112); suppressed comparisons are
    counted in [Stats.iq_wakeups_suppressed] instead of the gated
    integral.

    [Load_delay] is energy-only: it issues the same instructions in
    the same cycles as [Oldest_first] (suppression only reroutes the
    accounting), which the policy-grid gate asserts per cell. [Nskip]
    genuinely trades ILP for scan energy — the bounded scan starves
    ready-but-young entries, so cycle counts rise as scan energy
    falls. DESIGN.md §16 has the contract and what the checker pins. *)

type t =
  | Oldest_first
  | Nskip of int  (** scan at most N slots from [head], holes included *)
  | Load_delay

val oldest_first : t

(** Raises [Invalid_argument] unless [n > 0]. *)
val nskip : n:int -> t

val load_delay : t

(** [Oldest_first] — the pre-refactor scheduler. *)
val default : t

(** ["oldest_first"], ["nskip:N"], ["load_delay"]. *)
val name : t -> string

(** Stable memo-key string; currently equal to [name]. *)
val key : t -> string

(** The shapes [of_string] accepts, for CLI error messages. *)
val valid_names : string list

(** Parse ["NAME[:N]"], [N] in canonical decimal: [Ok t] exactly when
    [name t = s]. The error message names the valid policies. *)
val of_string : string -> (t, string) result

(** Slots the select scan may examine per cycle on an active ring of
    [active] slots. *)
val scan_bound : t -> active:int -> int

(** Whether predicted-ready waiting operands skip their CAM comparison
    (true only for [Load_delay]). *)
val suppresses_predicted : t -> bool

val pp : Format.formatter -> t -> unit
