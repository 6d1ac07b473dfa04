# Tier-1 entry point: `make check` is the gate every PR must keep
# green. Formatting runs only where ocamlformat is installed, so the
# target works in minimal containers too.

.PHONY: all check build test fmt bench bench-snapshot bench-diff clean server-smoke serve-smoke trace-smoke crash-smoke crash-matrix collection-smoke obs-smoke http-smoke perf-selftest serve-demo

all: build

build:
	dune build @all

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping dune fmt"; \
	fi

check: build test fmt server-smoke serve-smoke trace-smoke crash-smoke collection-smoke obs-smoke http-smoke

# The end-to-end server test forks a real `crimson_server` on a Unix
# socket and drives it with concurrent clients; running it on its own
# (it is also part of `dune runtest`) gives CI an unambiguous signal
# when only the service layer breaks.
server-smoke:
	dune exec test/test_server.exe -- test e2e

# CLI-level fleet smoke: boot `crimson serve` at --workers 1 and
# --workers 4, drive each through `crimson connect`, and require a
# clean SIGTERM drain (exit 0, listening socket removed).
serve-smoke: build
	sh scripts/serve_smoke.sh 1 4

# Crash safety end to end: fork a loader into a durable repository,
# SIGKILL it mid-load, reopen and verify every surviving tree is whole.
# The in-process fault matrix also runs under `dune runtest`; this
# target isolates the real-process check.
crash-smoke:
	dune exec test/test_crash.exe -- test e2e

# The full fault-injection matrix on its own, writing one line per
# fault point to crash_matrix.log (CI uploads it as an artifact).
crash-matrix:
	CRIMSON_CRASH_LOG=$(CURDIR)/crash_matrix.log dune exec test/test_crash.exe -- test matrix

# Collection store end to end through the CLI: ingest 20 bootstrap
# replicates, then require the consensus to be byte-stable across two
# runs and across a served fleet at --workers 1 vs 4.
collection-smoke: build
	sh scripts/collection_smoke.sh

# The fleet health plane end to end through the CLI: serve at
# --workers 1 and 4 with --obs-listen, health-gate the boot via
# /healthz, push a query burst, and require the merged /metrics
# server.requests counter to equal the sum of the per-worker slices
# and the node-cache and pager hit counters to rise over the burst.
obs-smoke: build
	sh scripts/obs_smoke.sh 1 4

# The HTTP/JSON data-service gateway end to end through the CLI:
# serve with --http-listen at --workers 1 and 4, require the paginated
# listing to be fleet-size independent, a second conditional GET to
# answer 304, and a CLI mutation to invalidate the catalog ETag.
http-smoke: build
	sh scripts/http_smoke.sh

# The trace pipeline end to end: serve a repository with slowlog_ms=0
# and a JSONL trace sink, run scripted queries, and assert the SLOWLOG
# and METRICS replies parse and the sink file rotates.
trace-smoke:
	dune exec test/test_trace.exe -- test e2e

# The repository benchmark at tiny size: every perfbench workload runs
# traced and untraced, every served wire and HTTP reply is checked
# against the library's answer, and the metric names and units must
# match BENCHMARK.json.
perf-selftest:
	python3 perfbench/run.py --self-test

# Simulate a small repository and serve it on the default address.
# Ctrl-C drains and exits; talk to it with
#   dune exec bin/crimson.exe -- connect 'HELLO' 'USE demo' 'QUERY info()'
serve-demo:
	rm -rf _demo_repo _demo_repo.nex
	dune exec bin/crimson.exe -- simulate --model yule --leaves 500 --seed 7 -o _demo_repo.nex
	dune exec bin/crimson.exe -- load -r _demo_repo -n demo -f 8 _demo_repo.nex
	dune exec bin/crimson.exe -- serve -r _demo_repo --listen 127.0.0.1:7151

bench:
	dune exec bench/main.exe

# Persist each experiment's BENCH payload as BENCH_<exp>.json in
# $(BENCH_DIR) (CI uploads them as artifacts), which is first emptied of
# earlier snapshots, so `make bench-diff` judges only this run. BENCH
# selects a subset, e.g. `make bench-snapshot BENCH="E1 E6"`.
BENCH_DIR := $(CURDIR)/_bench

bench-snapshot:
	mkdir -p $(BENCH_DIR)
	rm -f $(BENCH_DIR)/BENCH_*.json
	CRIMSON_BENCH_SNAPSHOT=$(BENCH_DIR) dune exec bench/main.exe -- $(BENCH)

# Compare the fresh BENCH_*.json in $(BENCH_DIR) (written by the last
# `make bench-snapshot`) against the committed bench/baselines/.
# A changed exact field (E7's nrf_*/triplet_* scores, E3's
# frontier_nodes_* sizes, every *pages* count) fails the target;
# a >20% throughput or >10% word-count regression only prints a WARNING — bench containers
# are too noisy to hard-gate times.
bench-diff:
	dune exec bench/diff.exe -- $(BENCH_DIR) $(CURDIR)/bench/baselines

clean:
	dune clean
