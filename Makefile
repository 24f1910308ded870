# Development targets. `make verify` is the pre-commit gate: it must
# pass before any change lands.

GO ?= go

.PHONY: all build test bench bench-ab lint fmtcheck verify fuzz chaos sweep serve load sample-validate cluster cluster-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench: run the suite — including the one-pass screening pair
# (BenchmarkOnePassGrid vs BenchmarkExactGridConfigByConfig) — and keep
# a dated machine-readable log of the results (name -> ns/op + reported
# metrics), stamped with the commit it measured, next to the console
# output. Gate a change with:
#   go run ./cmd/benchjson -compare BENCH_<old>.json BENCH_<new>.json
bench:
	$(GO) test -run='^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson \
		-sha "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		-o BENCH_$$(date +%Y-%m-%d).json

# bench-ab: a same-host A/B of the repository benchmark, the base commit
# against the working tree. BASE is exported (git archive) into a
# temporary directory; perfbench's WORKLOAD then runs N times in each
# tree, pair i at seed i, alternating the sides and which side goes
# first, and benchjson -ab prints each end-to-end metric's median,
# quartiles and range per side (it fails if any run's result is
# incorrect). The temporary tree goes under $TMPDIR and is removed at
# exit. For example:
#   make bench-ab BASE=HEAD~1 WORKLOAD=engines N=10
BASE ?= HEAD
WORKLOAD ?= engines
N ?= 10
bench-ab:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; head=$$(pwd); \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	for i in $$(seq 1 $(N)); do \
		order="base head"; [ $$((i % 2)) = 1 ] || order="head base"; \
		for side in $$order; do \
			dir="$$head"; [ $$side = head ] || dir="$$tmp/base"; \
			echo "bench-ab: pair $$i of $(N), $$side, $(WORKLOAD) seed $$i" >&2; \
			(cd "$$dir" && bash perfbench/run.sh --workload $(WORKLOAD) --seed $$i --trace 0 \
				--out "$$tmp/results-$$side") > "$$tmp/out"; \
			tail -n 1 "$$tmp/out" >> "$$tmp/$$side.jsonl"; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson -ab "$$tmp/base.jsonl" "$$tmp/head.jsonl"

# lint: the repo-specific cachelint suite (internal/lint): nopanic,
# errwrap, determinism, exhaustive, statscoverage. Non-zero exit on any
# finding; see README.md for the //lint:allow escape hatch.
lint:
	$(GO) run ./cmd/cachelint ./...

# fmtcheck: fail, listing the files, when any Go file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: not formatted (run gofmt -w):"; echo "$$out"; exit 1; fi

# verify: static checks (gofmt, vet, cachelint), a full build, the test suite
# under the race detector, and short fuzz smokes over the trace-file
# reader and the three engines' agreement (FuzzEngines: screening equals
# exact, functional warming equals a full replay, on random L1
# geometries, write policies and synthetic traces). Last, the benchmark
# module in perfbench/ (its own go.mod, so ./... does not reach it) is
# vetted and self-tested, so a change cannot break its build unnoticed.
verify: lint fmtcheck
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzEngines -fuzztime=10s ./internal/stackdist
	cd perfbench && $(GO) vet . && $(GO) test .

fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=5m ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzEngines -fuzztime=5m ./internal/stackdist

# chaos: the fault-injection and durability suite under the race
# detector — torn-write/corruption recovery in the store, the
# fault-injected filesystem scenarios, breaker/retry behavior, and the
# kill-the-daemon-mid-write end-to-end test. Plus a fuzz smoke over the
# store's record decoder and segment recovery.
chaos:
	$(GO) test -race -run '(Chaos|Crash|Fault|Torn|Corrupt|Recover|Breaker|Retry|Drain)' \
		./internal/store ./internal/faultinject ./internal/client ./internal/service ./cmd/cachesimd
	$(GO) test -run=^$$ -fuzz=FuzzStoreRead -fuzztime=10s ./internal/store

# sample-validate: the sampled-fidelity accuracy gate — sampled CPI and
# miss ratios against exact runs of the same recordings at the bounds
# DESIGN.md §12 documents, byte-identical rerun determinism, and the
# warm fast-forward state-equivalence suite it all rests on.
sample-validate:
	$(GO) test -run 'TestSampled|TestWarm|TestRunnerWarm|TestSkipScan' \
		./internal/sample ./internal/core ./internal/sched ./internal/trace ./internal/report ./internal/experiments

# sweep: regenerate every table and figure, fault-tolerantly.
sweep:
	$(GO) run ./cmd/sweep -exp all -jobs 4 -keep-going -manifest sweep-manifest.json

# serve: run the result-caching simulation daemon (see README "Serving").
serve:
	$(GO) run ./cmd/cachesimd -addr localhost:8344

# load: drive a running daemon with a zipf-skewed request mix and
# report latency split by cache outcome (start `make serve` first).
load:
	$(GO) run ./cmd/simload -addr localhost:8344 -c 8 -duration 20s

# cluster: a local distributed fabric — cachesim-coord on :8355 plus
# two cachesimd workers that register with it over heartbeats. Ctrl-C
# stops all three. Drive it with
#   go run ./cmd/simload -addr localhost:8355 -c 8 -duration 20s
# (the coordinator speaks the same /v1 surface as a single daemon; the
# load report then attributes traffic per worker), or curl
# localhost:8355/v1/cluster for ring state. See README "Clustering".
cluster:
	@mkdir -p .build
	$(GO) build -o .build/cachesim-coord ./cmd/cachesim-coord
	$(GO) build -o .build/cachesimd ./cmd/cachesimd
	@.build/cachesim-coord -addr localhost:8355 & C=$$!; \
	.build/cachesimd -addr localhost:8344 -coordinator http://localhost:8355 -worker-id w1 & W1=$$!; \
	.build/cachesimd -addr localhost:8345 -coordinator http://localhost:8355 -worker-id w2 & W2=$$!; \
	trap "kill $$C $$W1 $$W2 2>/dev/null" INT TERM EXIT; \
	wait

# cluster-smoke: the distributed-fabric gate. The race-detected unit
# and end-to-end suites (ring key-movement bounds, hedged failover,
# coordinator-vs-direct byte identity, cluster-wide second-request
# cache hit, SIGKILL-a-worker graceful degradation), then a live
# coordinator + 2 workers on loopback briefly under simload.
cluster-smoke:
	$(GO) test -race ./internal/fabric
	$(GO) test -race -run 'TestCluster|TestCoordinator' ./cmd/cachesim-coord
	@mkdir -p .build
	$(GO) build -o .build/cachesim-coord ./cmd/cachesim-coord
	$(GO) build -o .build/cachesimd ./cmd/cachesimd
	$(GO) build -o .build/simload ./cmd/simload
	@set -e; \
	.build/cachesim-coord -addr localhost:18355 -heartbeat-ttl 2s & C=$$!; \
	.build/cachesimd -addr localhost:18344 -coordinator http://localhost:18355 -worker-id w1 -heartbeat-interval 500ms & W1=$$!; \
	.build/cachesimd -addr localhost:18345 -coordinator http://localhost:18355 -worker-id w2 -heartbeat-interval 500ms & W2=$$!; \
	trap "kill $$C $$W1 $$W2 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS localhost:18355/readyz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	.build/simload -addr localhost:18355 -c 4 -duration 5s -max 50000; \
	echo; curl -fsS localhost:18355/v1/cluster
