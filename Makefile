.PHONY: all build test bench bench-quick check matrix-smoke perfbench-check clean

all: build

build:
	dune build

test:
	dune runtest

# The full gate: build, unit/property/golden tests, then a bench snapshot
# round-trip — --check-json rebuilds every experiment and compares typed
# content digests, so model drift fails the chain — and finally the CLI
# end-to-end: a small fleet co-simulation emitted as JSON must round-trip
# through the typed report pipeline, and the CS-D case study (the
# backscatter/four-class tables) must round-trip report by report.
check: build
	dune runtest
	dune exec bench/main.exe -- --json /tmp/amblib-bench-check.json
	dune exec bench/main.exe -- --check-json /tmp/amblib-bench-check.json
	dune exec bin/ambient.exe -- system --leaves 5 --relays 1 --hours 6 \
	  --format json > /tmp/amblib-system-check.json
	dune exec bench/main.exe -- --roundtrip-report /tmp/amblib-system-check.json
	dune exec bench/main.exe -- --roundtrip-case-study D

# Reports at jobs=1 and jobs=max must be byte-identical; the JSON snapshot
# carries ns/run per experiment plus suite wall-clock at both job counts.
bench: build
	dune exec bench/main.exe -- --reports-only --jobs 1 > /dev/null
	dune exec bench/main.exe -- --json BENCH_results.json
	dune exec bench/main.exe -- --check-json BENCH_results.json
	dune exec bench/main.exe -- --matrix --json BENCH_results.json

# Smoke-grade snapshot (~4x smaller timing budget): same schema and
# digest gate, throwaway output file — for quick local sanity and CI.
# --gc-stats re-runs every experiment once with allocation accounting and
# hard-fails if the raw RNG draw kernels exceed their minor-word budget.
# --fleet is the city-scale gate: 10^5 nodes, one simulated hour, and a
# hard floor/ceiling on events/sec and peak heap words per node.
# --fleet-scale re-simulates one build at jobs=1 and jobs=4 and requires
# bitwise-identical outcomes (plus a 1.5x run speedup on >= 4 real cores).
bench-quick: build
	dune exec bench/main.exe -- --quick --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --check-json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --gc-stats
	dune exec bench/main.exe -- --fleet 100000 --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --fleet-scale 100000 --jobs 4 --json /tmp/amblib-bench-quick.json
	dune exec bench/main.exe -- --matrix --json /tmp/amblib-bench-quick.json

# Resumability gate for the scenario-matrix harness: the same tiny grid
# twice against one store — the second pass must be served entirely from
# the digest-keyed cache (--expect-cached exits 1 otherwise) — then a
# resident serve session over the same store must answer the equivalent
# request with zero recomputation.
matrix-smoke: build
	rm -f /tmp/amblib-matrix-smoke.jsonl
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke.jsonl --jobs 2
	dune exec bin/ambient.exe -- matrix --spec examples/matrix_smoke.spec \
	  --store /tmp/amblib-matrix-smoke.jsonl --expect-cached
	printf '%s\n' \
	  '{"op":"run","name":"smoke","leaves":4,"relays":1,"hours":2,"fault":["none","crash:1@1"],"seeds":[1,2]}' \
	  '{"op":"quit"}' \
	  | dune exec bin/ambient.exe -- serve --store /tmp/amblib-matrix-smoke.jsonl \
	  | grep -q '"ran":0,'

# Reference check of the repo benchmark (perfbench/README.md): the two
# city workloads on all 16 pinned seed slots (0-15; 11 is the held-out
# seed), one second each.  perfbench exits 0 even when an output differs
# from its pinned reference, so each result line must read
# "correct": true.
perfbench-check:
	@for w in city-steady city-churn; do \
	  for s in 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do \
	    line=$$(sh perfbench/run.sh --workload $$w --seed $$s --seconds 1 --trace 0 | tail -n 1); \
	    case "$$line" in \
	      '{"correct": true,'*) echo "perfbench-check: $$w seed $$s correct" ;; \
	      *) echo "perfbench-check: $$w seed $$s: $$line" >&2; exit 1 ;; \
	    esac; \
	  done; \
	done

clean:
	dune clean
