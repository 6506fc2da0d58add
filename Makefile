# Convenience wrappers around dune; see README.md.

.PHONY: all build test doc fuzz bench quick-bench bench-smoke \
	telemetry-smoke scenarios crash mt mt-bench-smoke \
	replay-smoke replay-full perf perf-pin stack-check stack-ab examples \
	clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

# API reference from the odoc comments on every public .mli
# (needs odoc: opam install . --deps-only --with-doc).
doc:
	dune build @doc

# Seeded scenario fuzzer (lib/check): invariants + differential oracle
# after every event, shrunk replayable reproducers on failure.
# Override e.g.: make fuzz FUZZ_SEEDS=500 FUZZ_EVENTS=400
FUZZ_SEEDS ?= 100
FUZZ_EVENTS ?= 150

fuzz: build
	dune exec bin/verify.exe -- fuzz --seeds $(FUZZ_SEEDS) --events $(FUZZ_EVENTS)

# Seeded fault-injection sweep (lib/resilience): every decoder corpus
# damaged with every corruption class, lenient decoding must never
# raise and must account for every byte.
# Override e.g.: make inject INJECT_SEEDS=200
INJECT_SEEDS ?= 25

inject: build
	dune exec bin/verify.exe -- inject --seeds $(INJECT_SEEDS)

bench: build
	dune exec bench/main.exe

quick-bench: build
	dune exec bench/main.exe -- --scale=0.2 all

# Lookup + update-churn microbenches at smoke scale; both are
# correctness-gated (exit non-zero on any divergence — lookup against
# the reference Lpm, update against the record-trie oracle's Fib_op
# stream, and the incremental patch path against a from-scratch
# recompile plus the naive oracle, which must also demonstrably run:
# zero patched bursts fails) and write BENCH_lookup.json /
# BENCH_update.json (incl. the patch/incremental stats) so CI can
# record the perf trajectory.
bench-smoke: build
	dune exec bench/main.exe -- --scale=0.05 --json lookup
	dune exec bench/main.exe -- --scale=0.05 --json update

# Telemetry subsystem end-to-end: verify the windowed series agree
# exactly with the engine's scalar totals, then produce the CSV/JSON
# artifacts from an instrumented run and the hit-ratio-over-time
# comparison at smoke scale.
telemetry-smoke: build
	dune exec bin/verify.exe -- timeseries
	dune exec bin/sim.exe -- run --rib-size 3000 --packets 200000 \
	  --updates 400 --l1 75 --l2 100 --interval 20000 \
	  --telemetry out/telemetry
	dune exec bin/sim.exe -- experiment hitratio --scale 0.05 \
	  --interval 10000 --telemetry out/telemetry

# Readiness gates over the adversarial scenario packs: each pack is
# replayed twice (byte-identical determinism asserted via event-stream
# digests and score JSON), every phase is audited against the
# differential oracle and the invariant sweep, and the scores are
# diffed against the committed SCENARIO_BASELINES.json within
# per-metric tolerances. Exits non-zero on any gate failure.
# Re-pin after an intended behaviour change with:
#   dune exec bin/verify.exe -- scenarios --write-baselines
SCENARIO_SCALE ?= 0.05

scenarios: build
	dune exec bin/verify.exe -- scenarios --scale $(SCENARIO_SCALE) \
	  --out SCENARIO_SCORES.json

# Kill-point recovery gate (lib/durability): seeded BGP churn through
# the write-ahead journal + checkpoint store, then a simulated crash at
# EVERY journal-record boundary — plus torn writes, bit flips and
# corrupt checkpoints at each kill point. Every recovery must rebuild a
# control plane dump-identical to a clean rebuild at that point, agree
# with the linear oracle, and pass the invariant suite. Exits non-zero
# on any divergence. Override e.g.: make crash CRASH_UPDATES=300
CRASH_UPDATES ?= 120
CRASH_SAMPLE ?= 1

crash: build
	dune exec bin/verify.exe -- crash --updates $(CRASH_UPDATES) \
	  --sample $(CRASH_SAMPLE) --report CRASH_REPORT.json

# Multicore lookup-plane stress gate (lib/mt): N reader domains
# against a writer that republishes a compiled generation on EVERY
# update, with per-epoch oracle audit of sampled answers, freed-
# generation pin detection, exact sharded-counter reconciliation and
# complete grace-period reclamation required. Exits non-zero on any
# violation. Override e.g.: make mt MT_DOMAINS=8 MT_LOOKUPS=200000
MT_DOMAINS ?= 4
MT_LOOKUPS ?= 60000

mt: build
	dune exec bin/verify.exe -- mt --domains $(MT_DOMAINS) \
	  --lookups $(MT_LOOKUPS)

# Multicore lookup bench at smoke scale: aggregate Mlookups/sec and
# scaling efficiency vs domain count against a live update-churn
# writer, correctness-gated (per-epoch oracle divergences, freed-
# generation pins, counter exactness) and recorded as
# BENCH_mtlookup.json, including the patched-vs-full republish
# latency split. The speedup gate stays opt-in (--min-speedup=)
# so single-core runners report honest numbers without failing.
MT_BENCH_DOMAINS ?= 1,2

mt-bench-smoke: build
	dune exec bench/main.exe -- --scale=0.05 --json \
	  --domains=$(MT_BENCH_DOMAINS) mt-lookup

# Full-scale replay harness (lib/sim/replay.ml): RouteViews-sized RIB
# under sustained BGP churn and Zipf traffic through the complete
# stack — coalescing -> incremental snapshot patching -> mt plane —
# with an independent shadow-LPM audit and an enforced arena memory
# budget (heap words/route). Exits non-zero on any audit divergence,
# invariant violation, inert patch/publish path, or budget overrun.
# The smoke variant (scale 0.05, ~35K routes) is what CI runs and what
# BENCH_replay.json is pinned from; replay-full runs the paper-sized
# table (~700K routes, a few minutes). See BENCHMARKS.md.
# Override e.g.: make replay-full REPLAY_SCALE=1.3 (≈900K routes)
REPLAY_SCALE ?= 1.0

replay-smoke: build
	dune exec bench/main.exe -- --scale=0.05 --json replay

replay-full: build
	dune exec bench/main.exe -- --scale=$(REPLAY_SCALE) --json replay

# Perf-regression gate: diff every BENCH_*.json on disk against the
# committed BENCH_BASELINES.json with per-kind tolerances (exact
# deterministic counts, banded ratios and memory, warn-only wall-clock
# timings — see BENCHMARKS.md). Exits non-zero on any hard failure.
# Re-pin after an intended behaviour change with: make perf-pin
perf: build
	dune exec bin/verify.exe -- perf

perf-pin: build
	dune exec bin/verify.exe -- perf --write-baselines

# The stack benchmark (bench/stack, declared in BENCHMARK.json) at paper
# scale: one 30-second run of seed 1 per workload. Fails unless every
# run exits 0 and prints "correct": true; each run's output is kept in
# .bench_build/stack-check/. The 700K-route runs take minutes, so CI
# does not run this. See BENCHMARKS.md.
stack-check:
	@mkdir -p .bench_build/stack-check
	@failed=; for w in steady spread churn storm; do \
	  out=.bench_build/stack-check/$$w.out; \
	  if python3 bench/stack/run.py --workload $$w --seed 1 --seconds 30 \
	       > $$out && tail -n 1 $$out | grep -q '"correct": true'; then \
	    echo "stack-check: $$w ok"; \
	  else echo "stack-check: $$w FAILED (see $$out)"; failed="$$failed $$w"; fi; \
	done; test -z "$$failed"

# Alternating A/B of the stack benchmark (bench/stack_ab.py): PAIRS
# pairs of runs of each workload on seed SEED, one in a `git archive`
# export of PARENT (under .bench_build/ab/) and one in the working
# tree, alternating which goes first. Prints each end-to-end metric's
# medians, quartiles, pairs won and verdict against its bound in
# BENCHMARK.json; fails only on a wrong output or on deterministic
# counts that differ between the sides. Minutes per pair: not in CI.
PARENT ?= HEAD
PAIRS ?= 10
SEED ?= 1
WORKLOADS ?=

stack-ab:
	python3 bench/stack_ab.py --parent $(PARENT) --pairs $(PAIRS) \
	  --seed $(SEED) --workloads "$(WORKLOADS)"

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/edge_router.exe
	dune exec examples/bgp_storm.exe
	dune exec examples/lthd_playground.exe
	dune exec examples/dual_stack.exe

clean:
	dune clean
