(** The persistent run ledger: one JSONL record per campaign/bench run,
    appended to [telemetry/ledger.jsonl], and the regression gate
    [bin/benchdiff.exe] evaluates over it.

    A record carries provenance (git describe, a digest of the machine
    configuration and scheduler policy), geometry (domain count, pairs)
    and the measurements worth tracking across commits: wall clock and
    total IQ energy by technique. Records are append-only, so nothing
    ever rewrites the ledger; lines written by older versions (which
    may carry since-retired fields such as [mips_*]) still load.
    Host speed is gated elsewhere, parent against change on one host
    ([bench/perf], [make perf-gate]).

    {!gate} compares the newest record against the most recent earlier
    record of the same kind and digest: {e any} drift in an energy
    total fails — energies are deterministic given the digest, so a
    change means the simulator changed. *)

type record = {
  schema : int;  (** record format version; currently 1 *)
  time : string;  (** ISO-8601 UTC *)
  git : string;  (** [git describe --always --dirty], or "unknown" *)
  kind : string;  (** "report", or "campaign"/"mips" in older lines *)
  digest : string;  (** {!config_digest} of config + policy *)
  domains : int;
  pairs : int;
  wall_s : float;
  energy : (string * float) list;  (** technique -> total IQ energy *)
}

(** MD5 hex of the rendered machine configuration plus the scheduler
    policy key — two runs with equal digests must produce identical
    simulation numbers. [extra] folds further run-shaping inputs into
    the digest (e.g. the instruction budget) so runs that legitimately
    differ never gate against each other. *)
val config_digest :
  ?extra:string -> Sdiq_cpu.Config.t -> Sdiq_cpu.Sched.t -> string

(** Build a record; [time] defaults to now (UTC), [git] to
    [git describe --always --dirty] ("unknown" when git is absent),
    [digest] to the default config/policy digest. *)
val make :
  ?time:string ->
  ?git:string ->
  ?digest:string ->
  ?domains:int ->
  ?pairs:int ->
  ?wall_s:float ->
  ?energy:(string * float) list ->
  kind:string ->
  unit ->
  record

val to_json : record -> string
val of_json : Sdiq_util.Json.t -> (record, string) result

(** Write one record as one JSONL line to [oc] (a ledger file opened
    for appending). *)
val output : out_channel -> record -> unit

(** Every record of the ledger, oldest first. [Error] on an absent or
    unreadable file (a directory, no permission) or a malformed line,
    with a message naming the file and, for a bad line, its number: a
    mistyped path must not read as an empty ledger, which the gate
    passes. Never raises. *)
val load : file:string -> (record list, string) result

type verdict = { ok : bool; messages : string list }

(** Evaluate the newest record against its predecessors (same kind and
    digest). An empty ledger or a record with no comparable
    predecessor passes (it seeds the trajectory). *)
val gate : record list -> verdict
