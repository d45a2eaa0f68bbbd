# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-json doccheck fuzz experiments fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the training-based integration tests; finishes in a few seconds.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/hw/ ./internal/xbar/
	$(GO) test -race ./internal/mat/
	$(GO) test -race ./internal/opt/
	$(GO) test -race -short -count=10 ./internal/opt/ -run 'TestTrainAll'
	$(GO) test -race ./internal/dataset/ -run 'TestDigits'
	$(GO) test -race ./internal/experiment/ -run 'TestFig2|TestParallel|TestFaultSweep|TestRegistry|TestRunners|TestTrial|TestRetry|TestPanic|TestPartial|TestCheckpoint|TestFatal|TestSaveTrial|TestNonPartial|TestScalarTrial|TestCrashDemo'
	$(GO) test -race ./cmd/vortexsim/
	$(GO) test -race ./internal/fault/
	$(GO) test -race ./internal/fleet/
	$(GO) test -race ./internal/serve/
	$(GO) test -race -count=10 ./internal/serve/ -run 'TestBuildFleetLeavesNoGoroutine'
	$(GO) test -race ./internal/chaos/

# Regenerates every paper table/figure plus the extension studies at
# Default scale and records the outputs at the repository root.
bench:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem -benchtime=1x -timeout 7200s . 2>&1 | tee bench_output.txt

# The repository's benchmark (BENCHMARK.json, perfbench/NOTES.md): both
# serving workloads end to end, each run checked against its output
# gates. The build and its outputs stay under .bench_build/.
bench-json:
	bash perfbench/run.sh --workload serve_bin --seed 1 --seconds 20 --trace 0
	bash perfbench/run.sh --workload serve_json --seed 1 --seconds 20 --trace 0

# Doc-coverage gate: every exported identifier in every package must
# carry a godoc comment (see cmd/doccheck).
doccheck:
	$(GO) run ./cmd/doccheck $(shell find ./internal ./cmd -type d | sort)

# Short fuzz sessions over the quantizer, the device dynamics, the
# binary protocol's frame decoders, the /v1/classify JSON body (the
# handler's contract and the body decoder against encoding/json), the
# Prometheus exposition validator, checkpoint files, the -chaos mode
# parser, the reduced-resolution digit render (against rendering at
# full resolution, then decimating), the render's two kernels, the
# pixel noise and a stroke row's coverage (each against its scalar
# expression, on every ISA), the SGD sweep's binary16 screen (against
# its error bound, on every ISA) and the screened column trainer
# (against the one-Dot-per-sample reference).
fuzz:
	$(GO) test ./internal/adc/ -fuzz FuzzQuantize -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzPulseForTarget -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzAdvance -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzReadRequestFrame -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzReadResponseFrame -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzClassifyBody -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeClassifyBody -fuzztime 30s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzValidatePrometheus -fuzztime 30s
	$(GO) test ./internal/experiment/ -run '^$$' -fuzz FuzzCheckpointFile -fuzztime 30s
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz FuzzParseMode -fuzztime 30s
	$(GO) test ./internal/dataset/ -run '^$$' -fuzz FuzzDecimatedRender -fuzztime 30s
	$(GO) test ./internal/mat/ -run '^$$' -fuzz FuzzPixelNoise -fuzztime 30s
	$(GO) test ./internal/mat/ -run '^$$' -fuzz FuzzStrokeRow -fuzztime 30s
	$(GO) test ./internal/mat/ -run '^$$' -fuzz FuzzScreenRow -fuzztime 30s
	$(GO) test ./internal/opt/ -run '^$$' -fuzz FuzzScreenedColumn -fuzztime 30s

experiments:
	$(GO) run ./cmd/vortexsim -exp all -scale default

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
