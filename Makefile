GO ?= go

.PHONY: build test race race-matrix bench vet lint allocgate servegate obsgate fuzz-smoke all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The determinism invariants demand identical results at any processor
# count; racing at 1 and 4 gives the detector two very different
# schedules to work with (see DESIGN.md §11).
race-matrix:
	GOMAXPROCS=1 $(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race ./...

vet:
	$(GO) vet ./...

# xprsvet: the repo-specific determinism analyzers (vclockpurity,
# obsnoclock, maporder, atomicmix, poollifetime, lockorder,
# policypurity, tracegate, allowaudit). Runs in both standalone and
# vet-tool modes, matching CI. See DESIGN.md §11/§16.
lint: vet
	$(GO) run ./cmd/xprsvet ./...
	$(GO) build -o /tmp/xprsvet ./cmd/xprsvet
	$(GO) vet -vettool=/tmp/xprsvet ./...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineThroughput|BenchmarkBufferPoolParallel' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerSubmit' -benchmem ./internal/exec
	$(GO) run ./cmd/xprsbench -fig pipeline

# Allocation gate: the executor hot path must stay under the committed
# allocs/op budget (see TestPipelineAllocGate in bench_test.go).
allocgate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestPipelineAllocGate -v .

# Serving gate: the scheduler's Submit fast path must stay under its
# allocs/op budget (see TestIntakeAllocGate in sched_bench_test.go).
servegate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestIntakeAllocGate -v ./internal/exec

# Observability gate: the same fast path with sampled tracing and
# telemetry live must stay under its allocs/op budget — "observation is
# free" priced per submit (see TestObsAllocGate in sched_bench_test.go).
obsgate:
	XPRS_ALLOC_GATE=1 $(GO) test -run TestObsAllocGate -v ./internal/exec

# Fuzz smoke: every native fuzz target (func Fuzz* in a _test.go file)
# fuzzes for FUZZTIME on top of its committed seed corpus
# (testdata/fuzz/<target>/).
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for fz in $$(cat $$dir/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p'); do \
			echo "fuzz $$pkg $$fz"; \
			$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done
