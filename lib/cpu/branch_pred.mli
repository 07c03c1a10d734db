(** Branch prediction per Table 1: a 2K gshare / 2K bimodal hybrid with a
    1K selector, a 2048-entry 4-way BTB, and a return-address stack. *)

type t

val create : Config.t -> t

(** Predicted direction of the conditional branch at [pc]. *)
val predict_direction : t -> int -> bool

(** Train direction tables, selector and global history. *)
val update_direction : t -> int -> taken:bool -> unit

(** The predicted target of [pc], or [-1] on a miss (allocation-free:
    the pipeline's fetch path). *)
val btb_lookup_tgt : t -> int -> int

val btb_update : t -> int -> target:int -> unit

(** Push a return address; overflow drops the oldest entry. *)
val ras_push : t -> int -> unit

(** Pop the return address, or [-1] when the stack is empty (pushed
    addresses are ≥ 1). *)
val ras_pop_addr : t -> int

(** {2 RAS snapshot/restore (speculative fetch)}

    The wrong-path frontend pushes and pops the real stack; a squash
    rewinds it to the snapshot taken at the mispredict. The caller owns
    the snapshot buffer, sized [Config.ras_size], so episodes are
    allocation-free. *)

(** Blit the stack into [buf]; returns the top-of-stack index. *)
val ras_save : t -> int array -> int

val ras_restore : t -> int array -> int -> unit

