(** M/M/m occupancy model of the issue queue (Erlang-C), used as an
    analytic cross-check of the simulator: dispatch is the arrival
    stream, the issue ports are the servers, and the predicted mean
    population must land within a documented factor of the measured
    [Stats.avg_iq_occupancy]. Because real service times are
    heavy-tailed and dependence-clustered, the memoryless model
    underpredicts: on the benchmark grid the prediction is a positive
    lower bound within a factor of ~28 of the measurement, and the
    test suite pins predicted in [measured/32, measured * 1.25] (see
    DESIGN.md §16). After the queueing treatments of processor
    structures in arXiv 1807.08586. *)

type t = {
  lambda : float;  (** arrivals (dispatches) per cycle *)
  service : float;  (** estimated mean slot residency, cycles *)
  servers : int;  (** issue width *)
  rho : float;  (** utilisation, [lambda * service / servers] *)
  queue_prob : float;  (** Erlang-C probability an arrival waits *)
  occupancy : float;  (** predicted mean population, clamped to iq_size *)
}

(** [erlang_c ~servers ~load] is the probability an arrival must queue
    in an M/M/m system offered [load] erlangs ([lambda * service]).
    Computed by the stable Erlang-B recurrence (no factorials). [0] at
    zero load, [1] at or beyond saturation ([load >= servers]); raises
    [Invalid_argument] when [servers <= 0]. At [servers = 1] it equals
    the M/M/1 closed form [load]. *)
val erlang_c : servers:int -> load:float -> float

(** Mean M/M/m population [a + C rho / (1 - rho)], clamped to
    [capacity]; a saturated system ([rho >= 1]) reports the full
    capacity. *)
val occupancy :
  lambda:float -> service:float -> servers:int -> capacity:int -> float

(** The model evaluated on one run's statistics. *)
val predict : Sdiq_cpu.Config.t -> Sdiq_cpu.Stats.t -> t

val pp : Format.formatter -> t -> unit
