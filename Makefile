# Standard pre-PR gate: `make check` must pass before every commit.

GO ?= go

.PHONY: check fmt vet bench-vet bench-test build build-arm64 test race configcheck fuzz-smoke serve-smoke elastic-smoke bench-kernels bench-data bench-serve bench-elastic bench-fp16 bench-compare bench-smoke pprof sweep all

check: fmt vet bench-vet bench-test build build-arm64 test race configcheck fuzz-smoke serve-smoke elastic-smoke

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

# Race-detector gate over the whole module — the one definition, and the
# one CI's last step runs.
race:
	$(GO) test -race ./...

# Config-roundtrip gate: every committed example config must parse strictly
# and pass engine.Config.Validate.
configcheck:
	$(GO) test ./internal/engine -run TestCommittedConfigsValidate

# Short native-fuzzer smokes: the BPE encode/decode round-trip, the
# fp32↔fp16 conversion surface (batch encoders vs the scalar reference), the
# ZELC snapshot decoder (reject, or re-encode to the identical bytes) and the
# engine config parser (reject, or normalize → marshal → parse to the
# identical config) — a few seconds of coverage-guided input generation on
# every `make check`. (Unbounded minimisation of each new snapshot or config
# input would eat the 3 s, so it is capped at 100 executions.)
fuzz-smoke:
	$(GO) test ./internal/data -run=NONE -fuzz=FuzzBPERoundTrip -fuzztime=3s
	$(GO) test ./internal/tensor -run=NONE -fuzz=FuzzHalfRoundTrip -fuzztime=3s
	$(GO) test ./internal/zero -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=3s -fuzzminimizetime=100x
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzParseConfig -fuzztime=3s -fuzzminimizetime=100x

# Control-plane smoke: the full submit → stream → checkpoint HTTP round
# trip against an in-process zeroserve (part of `make check`).
serve-smoke:
	$(GO) test ./internal/serve -run TestServeSubmitStreamCheckpoint -count=1

# Elastic-recovery smoke: a deterministic mid-run rank kill recovered by
# the supervisor from its last boundary snapshot, under the race detector
# (part of `make check`).
elastic-smoke:
	$(GO) test -race ./internal/serve -run TestElasticKillResume -count=1

# Regenerate the dense-kernel baseline (BENCH_KERNELS.json).
bench-kernels:
	./scripts/bench_kernels.sh

# Regenerate the data-pipeline baseline (BENCH_DATA.json).
bench-data:
	./scripts/bench_data.sh

# Regenerate the control-plane baseline (BENCH_SERVE.json).
bench-serve:
	./scripts/bench_serve.sh

# Regenerate the elastic-checkpointing baseline (BENCH_ELASTIC.json).
bench-elastic:
	./scripts/bench_elastic.sh

# Regenerate the fp16 compute-path baseline (BENCH_FP16.json).
bench-fp16:
	./scripts/bench_fp16.sh

# Re-run every baseline suite and fail on >10% ns/op regression — or any
# allocs/op growth (hard gate; allocation counts are deterministic) —
# against the committed JSONs.
bench-compare:
	./scripts/bench_compare.sh BENCH_KERNELS.json
	./scripts/bench_compare.sh BENCH_DATA.json
	./scripts/bench_compare.sh BENCH_SERVE.json
	./scripts/bench_compare.sh BENCH_ELASTIC.json
	./scripts/bench_compare.sh BENCH_FP16.json

# One-iteration benchmark smoke: proves the alloc-reporting path itself
# still runs (CI uses this; it makes no timing claims).
bench-smoke:
	$(GO) test -run=NONE -bench='StageStep|AccumStep|^BenchmarkKernels$$|^BenchmarkDataPipeline$$|^BenchmarkServe$$|^BenchmarkElastic$$|^BenchmarkFP16Step$$' -benchtime=1x .

# Capture CPU + heap profiles of BenchmarkStageStep into ./profiles (see
# README "Profiling & allocation discipline" for how to read them).
pprof:
	./scripts/profile.sh

# Render the stage-sweep experiments.
sweep:
	$(GO) run ./cmd/zerobench stagememory stagesweep stagethroughput accumsweep

all: check
