# syncstamp — reproduction of "Timestamping Messages in Synchronous
# Computations" (Garg & Skawratananond, ICDCS 2002).

GO ?= go

.PHONY: all build vet lint lint-baseline test race stress net-test obs-test chaos-test async-test load-test bench microbench fuzz repro examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Static analysis gate: the repo-specific analyzers (cmd/tslint enforces the
# clock & determinism invariants of DESIGN.md "Enforced invariants") plus
# go vet and gofmt, so the local gate matches the CI lint job. The analyzer
# self-tests then prove every analyzer bites: the golden tests pin the exact
# diagnostics each seeded-violation package must produce and require each
# clean twin to stay silent, and the two spot checks below keep the
# end-to-end driver honest (a concurrency seed must fail, across module and
# per-package analyzers alike).
lint: vet
	$(GO) run ./cmd/tslint -baseline lint.baseline ./...
	$(GO) test -run 'TestAnalyzersGolden|TestNolintPolicy' ./internal/lint
	! $(GO) run ./cmd/tslint internal/lint/testdata/src/vectoralias/bad >/dev/null 2>&1
	! $(GO) run ./cmd/tslint internal/lint/testdata/src/spinbound/bad >/dev/null 2>&1

# Refresh the accepted-findings baseline (see lint.baseline header). The
# committed file is empty: the module is clean, and CI fails on anything new.
lint-baseline:
	$(GO) run ./cmd/tslint -write-baseline lint.baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake gate: the node runtime, the fault injector and the tsnode e2e runs
# (kill -9 soaks included) five times over under the race detector. A test
# that fails once in five here is a bug, not noise.
stress:
	$(GO) test -race -count=5 ./cmd/tsnode ./internal/fault ./internal/node

# Networking subsystem gate: the node runtime under the race detector (the
# stamp alias-safety test, run explicitly and verbosely first, included)
# plus the tsnode integration test (real OS processes over localhost TCP).
net-test:
	$(GO) test -race -run 'TestStampAliasSafety' -v ./internal/node
	$(GO) test -race ./internal/wire ./internal/node
	$(GO) test -race -run 'TestRunInProcessCluster|TestE2E' -v ./cmd/tsnode

# Observability gate: the obs package (including the zero-alloc-when-
# disabled and byte-stable-export acceptance tests, merge algebra, flight
# wraparound, and critpath determinism) under the race detector, the
# runtime hook + rollup + flight-dump tests in csp/node, and the
# trace-report/critical-path oracles plus the full e2e (obs endpoints +
# JSONL round trip through tsanalyze, byte-identical critical-path
# profiles across two runs).
obs-test:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'Obs|Dropped|TraceReport|Rollup|Flight|CriticalPath' ./internal/csp ./internal/node ./cmd/tsanalyze
	$(GO) test -race -run 'TestE2E' -v ./cmd/tsnode

# Fault-injection gate: the deterministic injector and the loss-tolerant
# protocol under the race detector (chaos matrix, resets, exclusion,
# journal restore), plus the chaos e2e runs — fault-plan trace determinism
# and the kill -9 crash-recovery soak over real OS processes, which also
# requires every node's flight dump to exist and the merged dumps to
# replay-verify against the sequential oracle.
chaos-test:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'TestJournal|TestRestore|TestLateAck|TestDialClassification' ./internal/node
	$(GO) test -race -run 'TestE2EFaultPlanDeterministicTraces|TestE2EKillNineRecoverySoak' -v ./cmd/tsnode

# Async-substrate gate: the α-synchronizer under the race detector — the
# internal/sync estimator/backoff/health units, the full async chaos matrix
# (every topology family × 8 seeds × loss to 20% × the three jitter
# profiles, stamps byte-equal to the sequential oracle), suspicion-driven
# exclusion with its property-level check, the async cluster rollup, the
# cold-start re-arm of a send parked before the first RTT sample, stamp
# alias safety under 5% loss with a link reset, and the async kill -9 e2e
# over real OS processes.
async-test:
	$(GO) test -race ./internal/sync
	SYNCSTAMP_ASYNC_MATRIX=full $(GO) test -race -run 'TestAsync|TestPropAsync' -timeout 30m ./internal/fault
	$(GO) test -race -run 'TestAsyncClusterRollup|TestAsyncColdStart|TestStampAliasSafety' ./internal/node
	$(GO) test -race -run 'TestE2EAsyncKillNineRecovers' -v ./cmd/tsnode

# Load/collector gate: the open-loop driver and the sharded collector tree
# under the race detector (incremental oracle, spill recovery, leaf-crash
# and straggler paths, copy-on-Ingest, the journal-line encoder's identity
# with encoding/json and the spill path's allocation budgets), then the
# 100k-client scale acceptance run and a spilling tsload control run end to
# end.
load-test:
	$(GO) test -race ./internal/load ./internal/check ./cmd/tsload
	$(GO) test -race -run 'TestCollector|TestSpill|TestCollectTree|TestCollectTimeout|TestJournalLine|FuzzJournalLine' ./internal/node
	$(GO) test -run TestLoadHundredThousandClients -v ./internal/load
	dir=$$(mktemp -d) && $(GO) run ./cmd/tsload -servers 8 -clients 5000 -msgs 2 \
		-zipf 0.9 -leaves 4 -spill-dir $$dir -segment 512 -control && rm -rf $$dir

# Benchmark gate: every workload of BENCHMARK.json through perfbench on a
# 2 s budget. run.sh exits non-zero when any trial's stamps differ from the
# sequential oracle ("correct": false); the gate re-checks "correct" on
# the result line and also fails when its msgs_per_sec is not positive. Timings are reported, not gated:
# a comparison needs interleaved runs on one host (perfbench/README.md).
bench:
	@for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		echo "== $$w"; \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2) || exit 1; \
		echo "$$out" | grep -v '^{'; \
		echo "$$out" | tail -n 1 | jq -e '.correct and .metrics.msgs_per_sec.value > 0' >/dev/null \
			|| { echo "bench: $$w reported an incorrect run or no throughput" >&2; exit 1; }; \
	done

# Every Benchmark* in the module with allocation counts, the fault
# injector's batched egress path (BenchmarkFaultConnWrite) and the fixed
# versus adaptive retransmission comparison (BenchmarkRetransmit) included.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over every fuzz target (seeds always run under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzReadText -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzReadText -fuzztime=10s ./internal/graph
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/vector
	$(GO) test -fuzz=FuzzCompare -fuzztime=10s ./internal/vector
	$(GO) test -fuzz=FuzzStampTrace -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzVectorDelta -fuzztime=10s ./internal/vector
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzJournalLine -fuzztime=10s ./internal/node
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault
	$(GO) test -fuzz=FuzzNolint -fuzztime=10s ./internal/lint

# Regenerate every paper figure/claim table into paperbench_output.txt.
repro:
	$(GO) run ./cmd/paperbench | tee paperbench_output.txt
	@grep -q FAIL paperbench_output.txt && echo "REPRODUCTION DRIFT" && exit 1 || echo "all experiments OK"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clientserver
	$(GO) run ./examples/tree20
	$(GO) run ./examples/debugger
	$(GO) run ./examples/figure6
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/recovery

clean:
	$(GO) clean ./...
