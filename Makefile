# Convenience targets for the sdiq reproduction.

DOMAINS ?= 4
REPORT  := _build/default/bin/report.exe
FIGS    := fig6,fig7,fig8,fig9,fig10,fig11,fig12
FUZZ_N  ?= 500

.PHONY: all build test lint surface tighten-audit campaign fuzz check-campaign trace profile policy-grid telemetry perf-gate

all: build lint

build:
	dune build

test:
	dune runtest

# Static audit: the dataflow lints, the annotation-soundness pass and
# the delivery-integrity check over every built-in benchmark under all
# four annotation modes, with the findings archived as JSON. Exit 2 on
# errors, 1 on warnings or stale waivers, 0 when clean.
lint:
	dune build bin/lint.exe
	dune exec bin/lint.exe -- --json _build/lint-findings.json

# Dead-export guard: list every `val` in lib/**/*.mli whose name occurs as
# a word in no .ml under lib, bin, bench, examples or test other than its
# own module's; exit 1 if any is listed. A name used anywhere else counts
# as a use, so the scan can miss a dead export but never flags a live one.
surface:
	@dead=$$(for mli in $$(find lib -name '*.mli' | sort); do \
	  for v in $$(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\).*/\1/p' $$mli | sort -u); do \
	    grep -rlw --include='*.ml' -- "$$v" lib bin bench examples test \
	      | grep -vqx "$${mli%i}" || echo "$$mli: $$v"; \
	  done; \
	done); \
	if [ -n "$$dead" ]; then \
	  echo "$$dead"; \
	  echo "surface: exported but never called outside its module" >&2; \
	  exit 1; \
	fi; \
	echo "surface: every exported value has a caller"

# Tightening gate: re-derive every region's minimal sound window,
# deliver it, re-audit with the trip-count-refined soundness pass plus
# the wrong-path lints, and build the occupancy/energy certificate.
# Non-zero exit on any error finding. Also wired into `dune runtest`
# via the tighten-audit alias.
tighten-audit:
	dune build @tighten-audit

# Produce a JSONL event trace of one run and audit it with the lint
# CLI's delivery-integrity pass: every traced annotation delivery must
# name a real annotation site in the statically prepared binary with
# the value the compiler placed there, commits must retire in program
# order, and the cycle structure must be well-formed.
TRACE_BENCH ?= gzip
TRACE_MODE  ?= noop
trace:
	dune build bin/simulate.exe bin/lint.exe
	dune exec bin/simulate.exe -- --bench $(TRACE_BENCH) \
	  --technique $(TRACE_MODE) --budget 20000 \
	  --trace _build/$(TRACE_BENCH)-$(TRACE_MODE).jsonl | tail -1
	dune exec bin/lint.exe -- --bench $(TRACE_BENCH) -m $(TRACE_MODE) \
	  --trace _build/$(TRACE_BENCH)-$(TRACE_MODE).jsonl

# Region-attribution profile of two benchmarks as one JSON document,
# then validate its shape: the document must carry the per-pair region
# tables, the streaming-metrics registries and the campaign-wide merge.
profile:
	dune build bin/profile.exe
	dune exec bin/profile.exe -- --bench gzip,mcf --technique noop \
	  --budget 20000 --json > _build/profile-metrics.json
	@for key in '"pairs"' '"regions"' '"profile"' '"slack"' '"metrics"' \
	  '"campaign_metrics"'; do \
	  grep -q $$key _build/profile-metrics.json \
	    || { echo "profile: missing $$key in metrics JSON" >&2; exit 1; }; \
	done
	@echo "profile: _build/profile-metrics.json validated"

# Smoke-check the parallel campaign: every figure report.exe derives
# from the simulation table must be byte-identical on 1 domain and on
# $(DOMAINS) domains. Only the figures (fig6..fig12) are diffed; the
# trailing campaign timing line legitimately varies between any two runs.
campaign:
	dune build bin/report.exe
	@$(REPORT) --budget 20000 --only $(FIGS) --domains 1 \
	  | grep -v '^campaign:' > _build/campaign-1.out
	@$(REPORT) --budget 20000 --only $(FIGS) --domains $(DOMAINS) \
	  | grep -v '^campaign:' > _build/campaign-n.out
	@diff _build/campaign-1.out _build/campaign-n.out \
	  && echo "campaign: figures identical on 1 vs $(DOMAINS) domains"
	@# Sampled campaign: the scaled suite under SMARTS sampling; report.exe
	@# exits non-zero unless every (benchmark x technique) pair covers at
	@# least ten million instructions over at least 30 measured windows.
	@$(REPORT) --sample > _build/campaign-sampled.out
	@tail -1 _build/campaign-sampled.out

# One full telemetry pass: a traced report campaign appending to the
# run ledger and an OpenMetrics scrape of a profiled run, then the
# ledger gate (schema check, then the newest record against its
# predecessor: any energy drift fails). The trace loads in Perfetto /
# chrome://tracing; check the exposition with
# `promtool check metrics < $(TELEM)/metrics.om`. Host speed is gated
# by `make perf-gate`, not here.
#
# TELEM defaults to the committed ledger directory; CI points it at an
# untracked copy so runs never dirty the checkout.
TELEM ?= telemetry
telemetry:
	dune build bin/report.exe bin/simulate.exe bin/benchdiff.exe
	dune exec bin/report.exe -- --budget 20000 --only fig6 \
	  --ledger $(TELEM)/ledger.jsonl --trace-spans $(TELEM)/spans.json \
	  | tail -3
	dune exec bin/simulate.exe -- --bench gzip --technique noop \
	  --budget 20000 --metrics $(TELEM)/metrics.om | tail -1
	dune exec bin/benchdiff.exe -- --ledger $(TELEM)/ledger.jsonl --check-schema
	dune exec bin/benchdiff.exe -- --ledger $(TELEM)/ledger.jsonl

# Host-speed gate: the git revision BASE against the working tree, on
# this host. BASE is exported with `git archive` into $(PERF_GATE)/src.
# For seeds 1-10, both trees run bench/perf's paper-grid (the detailed
# core) and sampled-campaign (the sampled regime) with the same seed,
# the side that runs first alternating from seed to seed. compare.exe
# judges the pairs on the limits in .github/perf-gate.json (mips may
# drop by at most 50%). The gate passes only when compare.exe exits 0
# or 1, prints at least one metric verdict, and every line it prints is
# a run-count header, a metric that is improved, unchanged or
# unresolved, or a sim_digest difference; exit 1 also needs a
# sim_digest line, the one tolerated cause (the golden snapshot in
# `dune runtest` owns simulated output). Any other line or exit code
# fails it: a regressed or missing metric, fewer than ten pairs, a rise
# in failed operations, a workload run on one side only. Results land in
# $(PERF_GATE)/{base,change}/ and the verdict in $(PERF_GATE)/compare.txt.
PERF_GATE := _build/perf-gate
perf-gate:
	@test -n "$(BASE)" || { echo "perf-gate: usage: make perf-gate BASE=<rev>" >&2; exit 2; }
	@git rev-parse --verify --quiet "$(BASE)^{commit}" > /dev/null \
	  || { echo "perf-gate: unknown BASE $(BASE)" >&2; exit 2; }
	rm -rf $(PERF_GATE)
	mkdir -p $(PERF_GATE)/src $(PERF_GATE)/base $(PERF_GATE)/change
	git archive -o $(PERF_GATE)/base.tar $(BASE)
	tar -xf $(PERF_GATE)/base.tar -C $(PERF_GATE)/src
	dune build bench/perf/compare.exe
	@set -e; for s in 1 2 3 4 5 6 7 8 9 10; do \
	  if [ $$((s % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
	  for w in paper-grid sampled-campaign; do \
	    for side in $$order; do \
	      if [ $$side = base ]; then dir=$(PERF_GATE)/src; else dir=.; fi; \
	      log=$(PERF_GATE)/$$side/$$w-seed$$s.log; \
	      out=$$dir/bench/perf/_out/$$w-seed$$s-trace0.json; rm -f $$out; \
	      (cd $$dir && bash bench/perf/run.sh --workload $$w --seed $$s \
	        --seconds 3 --trace 0) > $$log 2>&1 \
	        || echo "perf-gate: $$side $$w seed $$s exited non-zero (see $$log)"; \
	      cp $$out $(PERF_GATE)/$$side/; \
	      echo "perf-gate: seed $$s $$w $$side: $$(tail -1 $$log)"; \
	    done; \
	  done; \
	done
	@rc=0; ./_build/default/bench/perf/compare.exe \
	  --benchmark .github/perf-gate.json $(PERF_GATE)/base/*.json -- \
	  $(PERF_GATE)/change/*.json > $(PERF_GATE)/compare.txt 2>&1 || rc=$$?; \
	  cat $(PERF_GATE)/compare.txt; ok=yes; \
	  case $$rc in 0|1) ;; *) ok=no ;; esac; \
	  grep -Evq '^== [^ ]+: [0-9]+ parent runs, [0-9]+ change runs$$|^   sim_digest differs: |^   [a-z_]+ +parent .* (improved|unchanged|unresolved)$$' \
	    $(PERF_GATE)/compare.txt && ok=no; \
	  grep -Eq '^   [a-z_]+ +parent .* (improved|unchanged|unresolved)$$' \
	    $(PERF_GATE)/compare.txt || ok=no; \
	  if [ $$rc = 1 ]; then grep -q '^   sim_digest differs: ' $(PERF_GATE)/compare.txt || ok=no; fi; \
	  if [ $$ok = no ]; then echo "perf-gate: FAIL against $(BASE)"; exit 1; fi; \
	  echo "perf-gate: ok against $(BASE)"

# Scheduler-policy grid: every benchmark x {noop, improved} x
# {oldest_first, nskip:4, load_delay}, with both policy gates enforced
# (load_delay must be cycle- and commit-identical to oldest_first;
# nskip:4 must cut scan energy on at least three benchmarks) and the
# per-cell scan-power figures archived as JSON.
policy-grid:
	dune build bin/report.exe
	dune exec bin/report.exe -- --budget 20000 \
	  --policy-grid _build/policy-grid.json

# Differential fuzzing, five lanes over the same FUZZ_N random
# programs: (1) oracle vs pipeline under every technique with the
# invariant checker installed (speculative fetch on — the default);
# (2) the same seeds through SMARTS sampling, checker auditing every
# detailed window; (3) each program run with speculation on and off,
# asserting the committed trace and final architectural state are
# identical — wrong-path execution must be architecturally invisible;
# (4) the tightened configuration on each program, asserting it
# re-audits clean and commits identically to the baseline binary;
# (5) each program under every technique with no sink (quiet cycles
# skipped) and with a null sink (every cycle stepped), asserting equal
# statistics.
# Reproducible: a failure prints its seed; replay one program with
#   FUZZ_SEED=<seed> FUZZ_N=1 dune exec test/fuzz_main.exe
fuzz:
	dune build test/fuzz_main.exe
	FUZZ_N=$(FUZZ_N) FUZZ_SEED=$(or $(FUZZ_SEED),1) \
	  dune exec test/fuzz_main.exe

# The full (benchmark x technique) campaign under every scheduler
# policy, with the cycle-level invariant checker auditing every run on
# every domain: oldest_first, the bounded select scan of nskip:4 and the
# suppressed wakeups of load_delay. A violation exits 2 and fails the
# target.
check-campaign:
	dune build bin/simulate.exe
	@set -e; for p in oldest_first nskip:4 load_delay; do \
	  for b in gzip vpr mcf; do \
	    for t in baseline noop extension improved abella; do \
	      ./_build/default/bin/simulate.exe --bench $$b --technique $$t \
	        --policy $$p --budget 20000 --check > _build/check-campaign.out; \
	      head -2 _build/check-campaign.out | paste -sd' '; \
	    done; \
	  done; \
	done
	@echo "check-campaign: all pairs audited cycle-by-cycle under every policy"
