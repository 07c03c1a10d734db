(** The paired-run rule for calling a metric improved, unchanged,
    regressed or unresolved between a parent commit and a change.

    Runs are paired in order: [parent.(i)] and [change.(i)] are one pair,
    and the caller alternates which side of each pair ran first. *)

type better = Lower | Higher

val better_of_string : string -> better option

type t =
  | Improved  (** the change wins >= 9/10 of the pairs and the medians
                  differ by more than the parent's inter-quartile range *)
  | Unchanged  (** the change's median is within the bound of the parent's *)
  | Regressed  (** worse than the parent's median by more than the bound *)
  | Unresolved
      (** fewer than [min_pairs] pairs, or a parent spread wider than the
          bound that no clean separation overrides *)

val name : t -> string

(** Pairs needed before any verdict but [Unresolved]. *)
val min_pairs : int

(** [decide ~better ~bound ~parent ~change] applies the rule to one
    metric; [bound] is the tolerated worsening as a share of the
    parent's median. Only the first [min (length parent) (length change)]
    pairs are used. *)
val decide :
  better:better -> bound:float -> parent:float array -> change:float array -> t
