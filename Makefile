# Standard pre-PR gate: `make check` must pass before every commit.

GO ?= go

.PHONY: check fmt vet bench-vet bench-test build build-arm64 test test-386 race configcheck api fuzz-smoke serve-smoke elastic-smoke elastic-example pprof sweep all

check: fmt vet bench-vet bench-test build build-arm64 test test-386 race configcheck api fuzz-smoke serve-smoke elastic-smoke elastic-example

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# bench/ is a module of its own that `./...` cannot see, so an API move in
# the packages it calls would break the benchmark unnoticed. Same module
# flags as bench/run.sh.
bench-vet:
	GOFLAGS=-mod=mod GOPROXY=off $(GO) vet -C bench ./...

# bench/'s own tests (~15 s), which `./...` cannot see either: they compile
# and run the benchmark's harness against model, zero and engine.
bench-test:
	GOFLAGS=-mod=mod GOPROXY=off $(GO) test -C bench ./...

build:
	$(GO) build ./...

# Cross-compile gate for the non-amd64 fallbacks: the fp16 encode/decode
# and kernel paths carry portable implementations behind build tags, and
# this keeps them compiling.
build-arm64:
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# Pure-Go kernel tier: on amd64 "lanes off" still runs the SSE axpy sweep,
# so the portable loops (axpy_generic.go, half_generic.go, expvec_generic.go)
# only ever build there. 386 has no lane kernels and runs them — the
# optimizer's scalar Adam loop (adam_generic.go) too — and every golden in
# these packages must still hold bitwise. internal/mp runs the Megatron-
# sharded block, whose GELU saves g′ into its FFN slice, on the same tier.
test-386:
	GOARCH=386 $(GO) test ./internal/tensor ./internal/optimizer ./internal/model ./internal/zero ./internal/mp

# Race-detector gate over the whole module — the one definition, and the
# one CI's last step runs.
race:
	$(GO) test -race ./...

# Config-roundtrip gate: every committed example config must parse strictly
# and pass engine.Config.Normalized.
configcheck:
	$(GO) test ./internal/engine -run TestCommittedConfigsValidate

# Exported-surface gate: every exported func or method under internal/ has
# a non-test reference outside its package (cmd/, examples/ and bench/
# count), or an allowlist entry with its reason. Fails with each offender's
# file:line.
api:
	$(GO) test ./internal/testutil -run TestExportedSurfaceHasImporters -count=1

# Short native-fuzzer smokes: the BPE encode/decode round-trip, the
# heap-driven BPE encode against the rescan-per-merge reference, the vocab
# JSON loader (reject, or save → load to the identical vocab, with
# allocation linear in the input), the fp32↔fp16 conversion surface (batch
# encoders vs the scalar reference), GELU (y and g′, also over x),
# GELUBackward and softmax (each also in place) on both GELU/exp lane
# tiers (eight-lane ZMM and four-lane YMM), LayerNorm forward and backward
# on both lane tiers against the row loops, every matmul kernel on both
# register-tile tiers
# (8×32 ZMM and 4×16 YMM) and F16C decode (each bitwise the scalar
# reference), the Adam lane kernel on any
# moments, gradients and step (bitwise the scalar loop), a ring reduce-scatter then
# all-gather over random partitions with empty ranges (bitwise the
# ring-order sum, one message per non-empty chunk hop), the gradient units
# of random model shapes (tiling Ψ with whole tensors, their windows
# exactly perfmodel's W bytes), the ZELC snapshot
# decoder (reject, or re-encode to the identical bytes), the engine config
# parser (reject, or normalize → marshal → parse to the identical config)
# and the job-spec parser (reject, or marshal → parse to the identical
# spec) — a few seconds of coverage-guided input generation on every
# `make check`.
# (Unbounded minimisation of each new vocab, encode, matmul, LayerNorm,
# Adam, ring, unit, snapshot, config or spec input would eat the 3 s, so it is
# capped at 100 executions.)
fuzz-smoke:
	$(GO) test ./internal/data -run=NONE -fuzz=FuzzBPERoundTrip -fuzztime=3s
	$(GO) test ./internal/data -run=NONE -fuzz=FuzzLoadTokenizerJSON -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/data -run=NONE -fuzz=FuzzEncodeMatchesReference -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/tensor -run=NONE -fuzz=FuzzHalfRoundTrip -fuzztime=3s
	$(GO) test ./internal/tensor -run=NONE -fuzz=FuzzTranscendentals -fuzztime=3s
	$(GO) test ./internal/tensor -run=NONE -fuzz=FuzzMatMulLanes -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/tensor -run=NONE -fuzz=FuzzLayerNorm -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/optimizer -run=NONE -fuzz=FuzzAdamLanes -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/comm -run=NONE -fuzz=FuzzRingPartitions -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/zero -run=NONE -fuzz=FuzzGradUnits -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/zero -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzParseConfig -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzParseSpec -fuzztime=3s -fuzzminimizetime=100x

# Control-plane smoke: the full submit → stream → checkpoint HTTP round
# trip against an in-process zeroserve, one bad spec per engine config
# class answered 400, and the retention bound — six served jobs leave the
# live heap less than one checkpoint above two (part of `make check`).
serve-smoke:
	$(GO) test ./internal/serve -run 'TestServeSubmitStreamCheckpoint|TestServeAdmissionErrors|TestServeHeapIndependentOfServedJobs' -count=1

# Elastic-recovery smoke: a deterministic mid-run rank kill recovered by
# the supervisor from its newest boundary snapshot file — in -snapshot-dir
# and in the private directory a daemon without one uses — a persisted
# snapshot resumed by hand, and a second daemon over the same -snapshot-dir
# numbering its jobs after the first's, leaving the first's files
# untouched; the file the ranks write together, each its own slab, byte for
# byte WriteTo's at N ∈ {1, 3, 8} × stages 0–3 × fp32/fp16; and a rank
# killed between its slab write and its report, which leaves the previous
# checkpoint the newest — all under the race detector (part of `make
# check`).
elastic-smoke:
	$(GO) test -race ./internal/serve -run 'TestElasticKillResume|TestPersistedSnapshotResumes|TestElasticPruneKeepsJobsNewest' -count=1
	$(GO) test -race ./internal/zero -run 'TestWriteSnapshotFileMatchesWriteTo' -count=1
	$(GO) test -race ./internal/elastic -run 'TestSnapshotterKillDuringWrite' -count=1

# The elastic walkthrough checks itself: it exits non-zero if regrouping an
# 8-rank snapshot for 4 ranks and back does not reproduce the ZELC file, if
# the 4-rank resume drifts past tolerance, or if the same-world resume is
# not bitwise (part of `make check`).
elastic-example:
	$(GO) run ./examples/elastic

# Capture CPU and heap profiles of the steady-state allocation test (every
# stage × schedule, warm-up and measured steps) into ./profiles, with every
# allocation sampled. See README "Profiling & allocation discipline" for how
# to read them.
pprof:
	mkdir -p profiles
	$(GO) test ./internal/zero -run '^TestSteadyStateStepAllocations$$' -count=1 -memprofilerate=1 -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -o profiles/zero.test

# Render the stage-sweep experiments.
sweep:
	$(GO) run ./cmd/zerobench stagememory stagesweep stagethroughput accumsweep

all: check
