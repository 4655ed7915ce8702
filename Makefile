GO ?= go

# Pinned linter toolchain so CI runs are reproducible; `make lint-tools`
# installs exactly these versions.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test vet fmt lint anchorlint anchorlint-sarif staticcheck govulncheck lint-tools docs race race-full chaos fuzz-smoke serve-smoke servebench-smoke bench bench-artifacts cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# The full static-analysis gate: the repo's own determinism linter, go
# vet, staticcheck, and govulncheck. anchorlint encodes the bitwise-
# determinism contract (see docs/ARCHITECTURE.md, "Determinism rules");
# zero unsuppressed findings is a merge requirement.
lint: vet anchorlint staticcheck govulncheck

# The baseline carries grandfathered findings (keyed rule+file+message,
# no line numbers); entries whose finding is fixed turn stale and fail
# the run, so the debt can only shrink.
anchorlint:
	$(GO) run ./cmd/anchorlint -baseline lint-baseline.json ./...

# Machine-readable lint output for code-scanning upload.
anchorlint-sarif:
	$(GO) run ./cmd/anchorlint -baseline lint-baseline.json -format sarif ./... > anchorlint.sarif || true
	@test -s anchorlint.sarif

# staticcheck and govulncheck are external binaries; run them when
# installed, otherwise print the pinned install recipe and skip so the
# target still works on offline development machines. CI installs both
# via lint-tools, so there they always run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Documentation gate: every package must carry a package comment, and the
# architecture + HTTP API documents must exist and be linked from the
# README. CI fails when any of it goes missing.
docs:
	@missing=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing package comments:" >&2; \
		echo "$$missing" >&2; \
		exit 1; \
	fi
	@for doc in docs/ARCHITECTURE.md docs/HTTP_API.md; do \
		test -f $$doc || { echo "missing $$doc" >&2; exit 1; }; \
		grep -q "$$doc" README.md || { echo "README.md does not link $$doc" >&2; exit 1; }; \
	done
	@echo "docs ok"

# Race-detector pass over the traffic-serving layer: the HTTP API, the
# artifact store, and the query engine handle concurrent requests over
# shared state. This is the quick inner-loop target; CI additionally runs
# race-full.
race:
	$(GO) test -race ./internal/serve/... ./internal/store/... ./internal/query/...

# Full-module race pass: every package, including the parallel trainers
# and kernels, under the race detector (CI runs this as its own job). The
# worker-invariance training tests run several times slower under -race,
# so raise the per-package timeout above the 10m default.
race-full:
	$(GO) test -race -timeout 40m ./...

# Chaos suite: the HTTP API under a seeded fault schedule spanning every
# registered injection site (internal/faults), run under the race
# detector. Asserts the degradation contract — a request either succeeds
# bitwise identical to the fault-free oracle or fails with a structured,
# retryable error. CI runs this alongside the race job.
chaos:
	$(GO) test -race -run 'Chaos|FaultSchedule' -count=1 -v ./internal/serve/...

# Fuzz smoke: the binary-artifact decoders against corrupt and truncated
# inputs for a bounded budget per target. A decode must either succeed on
# intact bytes or fail cleanly — never panic, never return wrong rows.
# (Go runs one fuzz target per invocation, hence the two lines.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBinary' -fuzztime 30s ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeANNIndex' -fuzztime 30s ./internal/ann/

# Statement-coverage gate: run the full suite with a cover profile and
# enforce the floors in coverage-baseline.json (per-package minimums plus
# a module-wide total). cmd/covergate fails the build on any regression;
# ratchet the floors upward by editing the baseline.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covergate -profile cover.out -baseline coverage-baseline.json

# Boot the HTTP server against the small config and hit /v1/healthz.
serve-smoke:
	$(GO) build -o /tmp/anchor-serve-smoke ./cmd/anchor
	@/tmp/anchor-serve-smoke serve -addr 127.0.0.1:18517 -config small & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 20); do \
		sleep 0.25; \
		if curl -fsS http://127.0.0.1:18517/v1/healthz; then ok=0; echo; break; fi; \
	done; \
	kill $$pid 2>/dev/null; \
	exit $$ok

# Serving-benchmark smoke: each servebench workload for 2 s through the
# benchmark's own entry point (real `anchor serve` processes over HTTP).
# A run is "correct" only when every answer matched its oracle and the
# digests pinned in servebench/digest.go, so this also checks the pinned
# training bits; any wrong answer or failed request fails the target.
servebench-smoke:
	@for w in dim-alternating budget-frontier select-cold; do \
		out=$$(bash servebench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		echo "$$w: $$out"; \
		echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0[,}]' || { \
			echo "servebench-smoke: $$w: wrong answers or failed requests" >&2; exit 1; }; \
	done

# Kernel and measure micro-benchmarks (the set CI archives per PR),
# including the retained pre-PR k-NN loop for speedup comparison, plus the
# downstream-training benchmarks (fast vs retained reference trainers) and
# the grid-cell benchmark with allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMulATB|BenchmarkMulABT|BenchmarkKNNMeasure|BenchmarkSVD|BenchmarkEigenspaceInstability|BenchmarkPIPLoss|BenchmarkSemanticDisplacement|BenchmarkQuantize' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkKNNMeasureReference3000' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkTrainLinearBOW|BenchmarkNERTrain|BenchmarkGridCell' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkNeighborsServe|BenchmarkNeighborsPrecision' -benchtime 3x ./internal/query | tee BENCH_query.txt
	$(GO) run ./cmd/benchjson -o BENCH_query.json < BENCH_query.txt
	@rm -f BENCH_query.txt
	$(GO) test -run '^$$' -bench 'BenchmarkANNNeighbors' -benchtime 1x ./internal/ann | tee BENCH_ann.txt
	$(GO) run ./cmd/benchjson -o BENCH_ann.json < BENCH_ann.txt
	@rm -f BENCH_ann.txt
	$(GO) run ./cmd/anchorlint -bench ./... | tee BENCH_lint.txt
	$(GO) run ./cmd/benchjson -o BENCH_lint.json < BENCH_lint.txt
	@rm -f BENCH_lint.txt

# Full paper-artifact regeneration benchmarks (slow; trains the grid).
bench-artifacts:
	$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkTable|BenchmarkRule|BenchmarkProp' -benchtime 1x .
