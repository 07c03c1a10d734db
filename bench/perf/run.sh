#!/usr/bin/env bash
# Build perf.exe from source and run one benchmark invocation:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# from the root of a full checkout. Untraced reps run for about S
# seconds (at least three); --trace 1 adds the traced rep and reports
# per-layer metrics instead of end-to-end ones. The last line of
# standard output is the result object; build output and progress go to
# standard error. Results and traces land in bench/perf/_out/.
set -euo pipefail

usage() {
  echo "usage: bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1" >&2
  exit 2
}

workload= seed= seconds= trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ -n "$workload" ] && [ -n "$seed" ] && [ -n "$seconds" ] || usage
case "$trace" in 0 | 1) ;; *) usage ;; esac

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe >&2

out=bench/perf/_out
mkdir -p "$out"
args=(run --workload "$workload" --seed "$seed" --seconds "$seconds"
  --json "$out/$workload-seed$seed-trace$trace.json")
if [ "$trace" = 1 ]; then
  args+=(--trace "$out/$workload-seed$seed.trace.json")
fi
exec ./_build/default/bench/perf/perf.exe "${args[@]}"
