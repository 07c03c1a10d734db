(** Issue-queue resizing policies: the baseline ([Unlimited]), the
    paper's compiler-directed scheme ([Software]) and the adaptive
    hardware comparison point ([Abella], IqRob64-style). *)

type abella = {
  window : int;
  bank : int;
  min_limit : int;
  max_limit : int;
  grow_threshold : float;
  shrink_headroom : int;
  mutable limit : int;
  mutable cycle_in_window : int;
  mutable occupancy_sum : int;
  mutable throttled_cycles : int;
  mutable resizes : int;
}

type software = {
  mutable max_new_range : int;
  mutable region_pc : int;
      (** PC of the annotation that opened the current region: a loop
          header seen again on each iteration must not reopen it *)
}

type t =
  | Unlimited
  | Software of software
  | Abella of abella

val unlimited : t

(** Starts wide open; the first annotation narrows it. *)
val software : ?initial:int -> unit -> t

val abella :
  ?window:int ->
  ?bank:int ->
  ?min_limit:int ->
  ?max_limit:int ->
  ?grow_threshold:float ->
  ?shrink_headroom:int ->
  unit ->
  t

val name : t -> string

(** May one more instruction dispatch this cycle? The software window is
    capped at [size - 1] slots so the region can never wrap the whole
    ring (which would freeze [new_head] on the tail). *)
val allows : t -> Iq.t -> bool

(** A compiler annotation reached dispatch: open a new region with this
    allowance, unless it is the annotation that opened the current one. *)
val on_annotation : t -> Iq.t -> pc:int -> value:int -> unit

(** Per-cycle bookkeeping and (for the adaptive scheme) the physical
    resize; [throttled] marks dispatch stopped by the policy (or by a
    shrunken ring) rather than by program structure. [resize_ok:false]
    defers the resize while keeping the sensing — the pipeline passes it
    during a wrong-path episode, whose squash rewinds IQ pointers
    recorded under the current modulus. *)
val end_cycle : t -> Iq.t -> resize_ok:bool -> throttled:bool -> unit

(** [cycles] or fewer repeats of the last {!end_cycle}, on a queue that
    has not changed since, folded in closed form (the adaptive scheme's
    sensing sums); stops short of a repeat that would close a sensing
    window. Returns how many were folded, [0] right after a window
    closed. The pipeline's quiet-cycle skip (DESIGN.md §13.5). *)
val idle : t -> Iq.t -> cycles:int -> throttled:bool -> int

val current_limit : t -> Iq.t -> int
