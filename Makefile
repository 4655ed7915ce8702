GO ?= go

# Pinned linter toolchain so CI runs are reproducible; `make lint-tools`
# installs exactly these versions.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test vet fmt lint anchorlint anchorlint-sarif staticcheck govulncheck lint-tools docs race race-full chaos fuzz-smoke serve-smoke servebench-smoke paper-workers bench bench-artifacts cover

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

# Every unsuppressed finding fails the run; the only exceptions are
# //anchorlint:ignore directives with a reason, in the source.
anchorlint:
	$(GO) run ./cmd/anchorlint ./...

# Machine-readable lint output for code-scanning upload.
anchorlint-sarif:
	$(GO) run ./cmd/anchorlint -format sarif ./... > anchorlint.sarif || true
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

# Fuzz smoke: the binary-artifact decoder against corrupt and truncated
# inputs for a bounded budget. A decode must either succeed on intact
# bytes or fail cleanly — never panic, never return wrong rows. (Go runs
# one fuzz target per invocation, so each further target needs its own
# line.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBinary' -fuzztime 30s ./internal/store/

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

# Worker-count invariance of the paper reproduction: all 25 artifacts at
# -config small, rendered at -workers 1 and at -workers 4, must be byte
# identical. Every float is printed at %.3f, the same cell strings
# TestPaperArtifactDigests hashes at the default worker count.
paper-workers:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/anchor experiment -all -config small -workers 1 > $$dir/w1.txt && \
	$(GO) run ./cmd/anchor experiment -all -config small -workers 4 > $$dir/w4.txt && \
	cmp $$dir/w1.txt $$dir/w4.txt; status=$$?; rm -rf $$dir; \
	[ $$status -eq 0 ] && echo "paper output identical at -workers 1 and 4"; exit $$status

# Kernel and measure micro-benchmarks (the set CI archives per PR),
# including the retained pre-PR k-NN loop for speedup comparison. The
# downstream-training benchmarks (linear BOW, NER, one uncached grid
# cell; with allocation counts), the query benchmarks and the embedding
# training benchmarks run 5 times each; BENCH_downstream.json,
# BENCH_query.json and BENCH_train.json (committed) record each one's
# median and quartiles. A query sample is 30 rounds: at 3, the first
# samples of the 64 concurrent singletons ran at about half rate.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMulATB|BenchmarkMulABT|BenchmarkKNNMeasure|BenchmarkSVD|BenchmarkEigenspaceInstability|BenchmarkPIPLoss|BenchmarkSemanticDisplacement|BenchmarkQuantize' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkKNNMeasureReference3000' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkTrainLinearBOW|BenchmarkNERTrain|BenchmarkGridCell' -benchmem -count 5 . | tee BENCH_downstream.txt
	$(GO) run ./cmd/benchjson -o BENCH_downstream.json < BENCH_downstream.txt
	@rm -f BENCH_downstream.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNeighborsServe|BenchmarkNeighborsPrecision' -benchtime 30x -count 5 ./internal/query | tee BENCH_query.txt
	$(GO) run ./cmd/benchjson -o BENCH_query.json < BENCH_query.txt
	@rm -f BENCH_query.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTrain(MC|GloVe|CBOW|FastText)$$' -benchtime 3x -count 5 . | tee BENCH_train.txt
	$(GO) run ./cmd/benchjson -o BENCH_train.json < BENCH_train.txt
	@rm -f BENCH_train.txt

# Full paper-artifact regeneration benchmarks (slow; trains the grid).
bench-artifacts:
	$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkTable|BenchmarkRule|BenchmarkProp' -benchtime 1x .
