(* Issue-queue resizing policies.

   [Unlimited] — the baseline 80-entry queue.

   [Software]  — the paper's technique: the compiler's [max_new_range]
   value (delivered by special NOOPs or instruction tags) limits the slot
   span between [new_head] and [tail]. Purely reactive hardware: two
   pointer comparisons, no heuristics.

   [Abella]    — the hardware adaptive scheme of Abella & González
   (IqRob64) the paper compares against: every [window] cycles the queue
   limit shrinks by one bank when occupancy leaves headroom, and grows
   when dispatch was throttled by the limit. The inevitable sensing lag
   is the point of comparison: "there is inevitably a delay in sensing
   rapid phase changes and adjusting accordingly" (Section 1). *)

type abella = {
  window : int;
  bank : int;
  min_limit : int;
  max_limit : int;
  grow_threshold : float;   (* fraction of window cycles throttled *)
  shrink_headroom : int;    (* shrink when avg occupancy below limit-this *)
  mutable limit : int;
  mutable cycle_in_window : int;
  mutable occupancy_sum : int;
  mutable throttled_cycles : int;
  mutable resizes : int;
}

type software = {
  mutable max_new_range : int;
  mutable region_pc : int;
      (* PC of the annotation that opened the current region: a loop-header
         annotation re-encountered on every iteration must not reopen the
         region (the window slides via new_head instead) *)
}

type t =
  | Unlimited
  | Software of software
  | Abella of abella

let unlimited = Unlimited

(* The software policy starts wide open; the first annotation narrows it. *)
let software ?(initial = max_int) () =
  Software { max_new_range = initial; region_pc = -1 }

let abella ?(window = 1024) ?(bank = 8) ?(min_limit = 8) ?(max_limit = 80)
    ?(grow_threshold = 0.06) ?(shrink_headroom = 4) () =
  Abella
    {
      window;
      bank;
      min_limit;
      max_limit;
      grow_threshold;
      shrink_headroom;
      limit = max_limit;
      cycle_in_window = 0;
      occupancy_sum = 0;
      throttled_cycles = 0;
      resizes = 0;
    }

let name = function
  | Unlimited -> "unlimited"
  | Software _ -> "software"
  | Abella _ -> "abella"

(* May one more instruction be dispatched this cycle? The software window
   is capped at [size - 1] slots: if the region ever wrapped the whole
   ring, [new_head] would coincide with [tail] and could no longer slide
   forward (the hardware equivalent of the classic full/empty pointer
   ambiguity in a circular buffer). *)
let allows t (iq : Iq.t) =
  if Iq.is_full iq then false
  else
    match t with
    | Unlimited -> true
    | Software s ->
      Iq.new_region_span iq < Int.min s.max_new_range (Iq.size iq - 1)
    | Abella a -> Iq.occupancy iq < a.limit

(* A compiler annotation arrived at dispatch: a new region starts and the
   allowance becomes [value]. A repeat of the annotation that opened the
   current region (a loop header seen again) is ignored — within a loop
   the window slides with [new_head] rather than restarting. Other
   policies ignore annotations. *)
let on_annotation t (iq : Iq.t) ~pc ~value =
  match t with
  | Software s ->
    if pc <> s.region_pc then begin
      Iq.start_new_region iq;
      s.max_new_range <- Int.max 1 value;
      s.region_pc <- pc
    end
  | Unlimited | Abella _ -> ()

(* Per-cycle bookkeeping; [throttled] is true when dispatch stopped this
   cycle because of the policy (not because the queue itself was full).
   [resize_ok] is false while a wrong-path episode is open: the squash
   rewinds the ring pointers to the episode boundary, which is only
   meaningful under the modulus they were recorded with, so the physical
   resize is deferred (one more increment of the scheme's inherent
   adjustment lag); sensing continues regardless. *)
let end_cycle t (iq : Iq.t) ~resize_ok ~throttled =
  match t with
  | Unlimited | Software _ -> ()
  | Abella a ->
    a.cycle_in_window <- a.cycle_in_window + 1;
    a.occupancy_sum <- a.occupancy_sum + Iq.occupancy iq;
    if throttled then a.throttled_cycles <- a.throttled_cycles + 1;
    if a.cycle_in_window >= a.window then begin
      let avg_occ =
        float_of_int a.occupancy_sum /. float_of_int a.window
      in
      let throttle_frac =
        float_of_int a.throttled_cycles /. float_of_int a.window
      in
      let old = a.limit in
      if throttle_frac > a.grow_threshold then
        a.limit <- Int.min a.max_limit (a.limit + a.bank)
      else if avg_occ < float_of_int (a.limit - a.shrink_headroom) then
        a.limit <- Int.max a.min_limit (a.limit - a.bank);
      if a.limit <> old then a.resizes <- a.resizes + 1;
      a.cycle_in_window <- 0;
      a.occupancy_sum <- 0;
      a.throttled_cycles <- 0
    end;
    (* Apply the decided size to the hardware as soon as it is safe; the
       retry-until-safe delay is part of the scheme's adjustment lag. *)
    if resize_ok then ignore (Iq.resize iq a.limit)

(* Quiet-cycle skipping (DESIGN.md §13.5): up to [cycles] more
   [end_cycle]s on an unchanged queue with the same [throttled], in
   closed form, stopping short of any that would close a sensing window
   (a close may move [limit], which the next cycle's [allows] reads).
   Returns how many were folded: 0 right after a window closed. The
   resize retried by each one fails as it did on the cycle they repeat,
   whose queue they share. *)
let idle t (iq : Iq.t) ~cycles ~throttled =
  match t with
  | Unlimited | Software _ -> cycles
  | Abella a ->
    if a.cycle_in_window = 0 then 0
    else begin
      let k = Int.min cycles (a.window - 1 - a.cycle_in_window) in
      a.cycle_in_window <- a.cycle_in_window + k;
      a.occupancy_sum <- a.occupancy_sum + (k * Iq.occupancy iq);
      if throttled then a.throttled_cycles <- a.throttled_cycles + k;
      k
    end

let current_limit t (iq : Iq.t) =
  match t with
  | Unlimited -> Iq.size iq
  | Software s -> s.max_new_range
  | Abella a -> a.limit
