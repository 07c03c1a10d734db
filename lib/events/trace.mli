(** JSONL trace sink: one hand-rolled JSON object per event per line,
    each with ["cycle"] (0-based) and ["ev"] (the kind name) plus
    kind-specific scalar fields. `bin/lint.exe --trace` audits this
    format; `jq` reads it directly. *)

(** A fresh sink writing to [oc]. The sink tracks the cycle number
    itself (incremented on each [Cycle_end]); the caller flushes or
    closes the channel when the run completes. *)
val sink : out_channel -> Event.t -> unit
