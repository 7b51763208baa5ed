# elastisched build and reproduction targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-json bench-gate fuzz scale-smoke chaos malleable-smoke repro repro-check lock-check examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Regenerate every paper figure/table as benchmarks (also records the
# reproduction report to bench_output.txt).
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Snapshot the packing-kernel, event-kernel, and end-to-end sweep
# benchmarks as BENCH_<date>.json (see DESIGN.md, "Packing-engine
# performance" and "End-to-end simulation throughput"). Commit the
# refreshed file whenever kernel or engine performance work lands.
bench-json:
	$(GO) run ./cmd/benchjson

# Gate the current tree against the newest committed BENCH_*.json: fails
# when any recorded benchmark regressed past the tolerance factor (loose on
# ns/op, which is machine-sensitive; tight on deterministic alloc counts).
bench-gate:
	$(GO) run ./cmd/benchgate

# Short fuzz pass over the trace parsers, the DP packing kernels, the
# persistent capacity profile, the indexed machine differential, the
# job-ID table against a map model, the three job collections' shared
# live window against plain-slice models, and the event kernel's static
# source against an all-heap reference.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzParseLine -fuzztime=10s ./internal/cwf
	$(GO) test -run=Fuzz -fuzz=FuzzParse -fuzztime=10s ./internal/cwf
	$(GO) test -run=Fuzz -fuzz=FuzzDPEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzProfileOps -fuzztime=10s ./internal/sched
	$(GO) test -run=Fuzz -fuzz=FuzzFaultTrace -fuzztime=10s ./internal/fault
	$(GO) test -run=Fuzz -fuzz=FuzzMachineIndexed -fuzztime=10s ./internal/machine
	$(GO) test -run=Fuzz -fuzz=FuzzIDTable -fuzztime=10s ./internal/idtab
	$(GO) test -run=Fuzz -fuzz=FuzzJobWindows -fuzztime=10s ./internal/job
	$(GO) test -run=Fuzz -fuzz=FuzzMalleableOps -fuzztime=10s ./internal/engine
	$(GO) test -run=Fuzz -fuzz=FuzzStreamMerge -fuzztime=10s ./internal/simkit

# Scale-out smoke: the whole sharded-dispatch suite (determinism bars,
# routing and exact-merge properties, the epoch protocol, config errors),
# the indexed machine at M=32k, and the machine and job-ID table suites
# under the race detector, plus one iteration each of the skewed routing
# and stealing benchmarks (mirrors CI's scale-smoke).
scale-smoke:
	$(GO) test -race -count=1 ./internal/dispatch
	$(GO) test -run=NONE -bench='BenchmarkShardedSkewE2E/route=.*/clusters=8' -benchtime=1x ./internal/dispatch
	$(GO) test -run=NONE -bench='BenchmarkShardedStealE2E' -benchtime=1x ./internal/dispatch
	$(GO) test -race -run=NONE -bench='BenchmarkMachineScale/indexed/M=32k' -benchtime=1x ./internal/machine
	$(GO) test -race -count=1 ./internal/machine ./internal/idtab

# Chaos harness: every registry algorithm under seeded node-group fault
# traces and retry policies, each schedule certified by the audit oracle,
# plus mid-outage snapshot/restore round trips (see DESIGN.md section 10),
# and the delta-feed differential: every Stateful policy warm against cold
# over the fault, checkpoint, malleable and contiguous axes (section 9).
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/experiment
	$(GO) test -race -run 'TestStatefulFeed' -count=1 ./internal/engine

# Malleability smoke: the -M decorated policies under Contiguous x Faults
# chaos with the resize-lawfulness audit rules, the work-conservation
# property under adversarial random resize streams, the delta-feed
# differential (AutoResize's quiet state warm against cold), and a short
# interleaved-ops fuzz pass (mirrors CI's chaos-smoke malleable cell).
malleable-smoke:
	$(GO) test -race -run 'TestChaosMalleable' -count=1 -v ./internal/experiment
	$(GO) test -race -run 'TestPropertyResizeWorkConservation' -count=1 ./internal/engine
	$(GO) test -race -run 'TestStatefulFeed' -count=1 ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzMalleableOps -fuzztime=10s ./internal/engine

# Full evaluation suite with TSV outputs under results/ and the markdown
# reproduction report in REPORT.md.
repro:
	$(GO) run ./cmd/expsuite -out results -md REPORT.md

# Regenerate results/ and REPORT.md and fail if any committed figure or
# report changed or a new file appeared: every TSV, SVG and table must
# stay byte-identical.
repro-check: repro
	git diff --exit-code -- results REPORT.md
	test -z "$$(git status --porcelain -- results REPORT.md)"

# Behaviour lock: every cell of testdata/behaviour.lock (registry policies
# and their -M variants over faults, checkpoints, malleable and contiguous
# axes; sharded routes and stealing at two worker counts; a snapshot round
# trip) must hash exactly as recorded. Regenerating it takes an explicit
# `go test -run TestBehaviourLock -update .`.
lock-check:
	$(GO) test -run '^TestBehaviourLock$$' -count=1 .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/elastic
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/fragmentation

clean:
	rm -rf results test_output.txt bench_output.txt
