GO ?= go
BENCH_OUT ?= BENCH_pr10.json
BENCH_BASE ?= BENCH_pr9.json
BENCH_LABEL ?= after
FUZZTIME ?= 10s

.PHONY: all build test check vet race kernels bench bench-all bench-compare fuzz smoke-resume smoke-trace smoke-atlas smoke-server fmt

all: build

build:
	$(GO) build ./...

# Full test suite (what CI gates on).
test:
	$(GO) test ./...

# Fast pre-commit gate: vet + race-enabled short tests + the learner
# kernels built for FMA-capable hosts.
# Long training runs (determinism table test, full discovery sessions)
# skip themselves under -short; the race detector still covers the
# sharded campaign workers, the shared reference table, and the cache.
check: vet race kernels

# Vetting for arm64 as well builds the non-amd64 fallback of the nn
# lane kernels and checks the assembly declarations against it.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# The dense kernels must stay unfused where the compiler may use FMA:
# the nn, PPO and REINFORCE tests (both kernel paths) at GOAMD64=v3.
kernels:
	GOAMD64=v3 $(GO) test ./internal/nn ./internal/rl/...

race:
	$(GO) test -race -short ./...

# Engine benchmarks (campaign, oracle, per-cipher fork kernels, DFA key
# recovery, atlas sweeps, the PPO learner step, a training-only
# discovery), 5 repetitions averaged into $(BENCH_OUT) under label
# $(BENCH_LABEL). Run with
# BENCH_LABEL=before on the parent commit to record a baseline; entries
# of other labels in an existing file are preserved.
bench:
	$(GO) test -run '^$$' -bench 'Campaign|Oracle|Encrypt|DFA|Sweep|PPOUpdate|Discover' -benchmem -count 5 . \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -o $(BENCH_OUT)

# Every benchmark in the repo, including the paper-table harness runs.
bench-all:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Compare this PR's benchmark record against the checked-in baseline;
# exits nonzero when any shared benchmark slowed down beyond 20%.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) $(BENCH_OUT)

# Fuzz smoke: each native fuzz target for FUZZTIME (go test allows one
# -fuzz target per invocation). The checked-in seed corpora under
# testdata/fuzz/ always run as part of `make test` too.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEncryptDecrypt$$' -fuzztime $(FUZZTIME) ./internal/ciphers
	$(GO) test -run '^$$' -fuzz '^FuzzBatchScalarEquivalence$$' -fuzztime $(FUZZTIME) ./internal/ciphers
	$(GO) test -run '^$$' -fuzz '^FuzzAccumulatorMerge$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzFaultApply$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzMLPBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzLaneKernelsMatchGoKernels$$' -fuzztime $(FUZZTIME) ./internal/nn

# Kill-and-resume smoke: SIGINT a checkpointing discovery run mid-training,
# verify the event log survived intact, resume, and compare against an
# uninterrupted reference run.
smoke-resume:
	sh scripts/smoke_resume.sh

# Traced-run smoke: tiny discovery run with -events and -trace, validate
# the Chrome trace, and run obsreport over the artifacts.
smoke-trace:
	sh scripts/smoke_trace.sh

# Exhaustive-sweep smoke: reduced-round atlas sweep, SIGINT'd mid-run and
# resumed bit-identically, plus tracecheck, atlas -validate, and a
# coverage replay of a real discovery event log.
smoke-atlas:
	sh scripts/smoke_atlas.sh

# Daemon restart smoke: SIGTERM explorefaultd mid-job, restart it on the
# same data directory, and require the resumed job's result and
# normalized event stream to match an uninterrupted daemon's byte for
# byte.
smoke-server:
	sh scripts/smoke_server.sh

fmt:
	gofmt -l -w .
