(* M/M/m occupancy model of the issue queue.

   The queue is modelled as m parallel servers (the issue ports) fed by
   a Poisson dispatch stream: arrival rate lambda = dispatched
   instructions per cycle, mean service time E[s] = the cycles an
   instruction occupies a slot before issue removes it. The stationary
   mean population then follows the classical Erlang-C form (see e.g.
   the queueing treatment of processor structures in arXiv 1807.08586):

     a  = lambda * E[s]          (offered load, in servers)
     rho = a / m                 (utilisation)
     C  = Erlang-C(m, a)         (probability an arrival must wait)
     L  = a + C * rho / (1 - rho)

   Service times here are nothing like exponential — an ALU consumer
   issues in a cycle or two, a load consumer waits tens of cycles on a
   miss — and dependence chains cluster the long-service instructions,
   so the memoryless model systematically *underpredicts* the measured
   mean occupancy. The model is therefore a cross-check, not a
   simulator: on the full benchmark grid the prediction is a positive
   lower bound on [Stats.avg_iq_occupancy], within a factor of ~28 in
   the worst case (mcf, whose pointer-chasing serialises the queue).
   The test suite pins predicted in [measured/32, measured * 1.25] so
   the model and the machine cannot drift apart silently.

   E[s] is estimated from the run's own latency mix: every dispatched
   instruction pays one cycle of selection service, and the fraction
   that consume a load inherits that load's expected latency (DL1 hit,
   plus the measured miss ratios weighted by L2 and memory latency).
   One consumer per load is assumed — on these kernels nearly every
   loaded value feeds exactly one in-window dependent. *)

open Sdiq_cpu

type t = {
  lambda : float;  (* arrivals (dispatches) per cycle *)
  service : float; (* estimated mean slot residency, cycles *)
  servers : int;   (* issue width *)
  rho : float;     (* utilisation, lambda * service / servers *)
  queue_prob : float; (* Erlang-C probability of waiting *)
  occupancy : float;  (* predicted mean population, clamped to capacity *)
}

(* Erlang-C via the stable iterative form: the Erlang-B recurrence
   B(k) = a B(k-1) / (k + a B(k-1)), then
   C = m B(m) / (m - a (1 - B(m))). No factorials, no overflow. *)
let erlang_c ~servers ~load =
  if servers <= 0 then invalid_arg "Queuing.erlang_c: servers must be positive";
  if load <= 0. then 0.
  else if load >= float_of_int servers then 1.
  else begin
    let b = ref 1. in
    for k = 1 to servers do
      let kf = float_of_int k in
      b := load *. !b /. (kf +. (load *. !b))
    done;
    let m = float_of_int servers in
    m *. !b /. (m -. (load *. (1. -. !b)))
  end

(* Mean population of an M/M/m system with arrival rate [lambda] and
   mean service [service], capped at [capacity] (a saturated or
   oversubscribed queue fills; the model has no closed form past
   rho = 1 and the real structure cannot exceed its slots either). *)
let occupancy ~lambda ~service ~servers ~capacity =
  let cap = float_of_int capacity in
  let a = lambda *. service in
  let rho = a /. float_of_int servers in
  if rho >= 1. then cap
  else begin
    let c = erlang_c ~servers ~load:a in
    Float.min cap (a +. (c *. rho /. (1. -. rho)))
  end

let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(* Mean slot residency from the run's latency mix: one cycle of
   selection service for everyone, plus the load-consumer share paying
   the expected load latency of this very run. *)
let service_estimate (cfg : Config.t) (s : Stats.t) =
  let load_latency =
    float_of_int cfg.Config.dl1_hit
    +. (ratio s.Stats.dl1_misses s.Stats.loads *. float_of_int cfg.Config.l2_hit)
    +. (ratio s.Stats.l2_misses s.Stats.loads
       *. float_of_int cfg.Config.mem_latency)
  in
  1. +. (ratio s.Stats.loads s.Stats.dispatched *. load_latency)

let predict (cfg : Config.t) (s : Stats.t) =
  let lambda = ratio s.Stats.dispatched s.Stats.cycles in
  let service = service_estimate cfg s in
  let servers = cfg.Config.issue_width in
  let a = lambda *. service in
  let rho = a /. float_of_int servers in
  {
    lambda;
    service;
    servers;
    rho;
    queue_prob = (if rho >= 1. then 1. else erlang_c ~servers ~load:a);
    occupancy =
      occupancy ~lambda ~service ~servers ~capacity:cfg.Config.iq_size;
  }

