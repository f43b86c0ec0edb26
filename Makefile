# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

# Every Fuzz* target in the repo, as "package:FuzzName" pairs. Go runs
# one fuzz target per invocation, so the smoke loop iterates.
FUZZ_TARGETS := \
	.:FuzzLoad \
	./internal/pattern:FuzzParseLabel \
	./internal/pattern:FuzzClassify \
	./internal/pattern:FuzzLabelSeries \
	./internal/datasets:FuzzReadCSV \
	./internal/core:FuzzBestComposition \
	./internal/core:FuzzBuild \
	./internal/engine:FuzzEngineMatch \
	./internal/modelstore:FuzzOpen \
	./internal/server:FuzzParseBatchRequest \
	./internal/server:FuzzParsePushPoints \
	./internal/server:FuzzParseNumber \
	./internal/server:FuzzHandlers
FUZZTIME ?= 10s

.PHONY: all lint lint-sarif test test-hammer perfbench-test examples bench bench-trace fuzz-smoke fmt-check tidy-check vuln loc

all: lint test

# lint: the project-specific analyzers (both modules), vet, and gofmt.
lint: fmt-check
	$(GO) vet ./...
	cd tools && $(GO) vet ./...
	$(GO) run ./tools/cmd/cdtlint ./... ./tools/...

# lint-sarif: the same cdtlint run, emitting SARIF 2.1.0 to
# cdtlint.sarif for code-scanning upload. cdtlint exits 1 on findings;
# the SARIF file is written either way so CI can upload before failing.
lint-sarif:
	@$(GO) run ./tools/cmd/cdtlint -format sarif ./... ./tools/... > cdtlint.sarif; \
		status=$$?; echo "wrote cdtlint.sarif"; exit $$status

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

tidy-check:
	$(GO) mod tidy -diff
	cd tools && $(GO) mod tidy -diff

# test: the race run skips the allocation tests (the race detector drops
# sync.Pool items at random), so they run again without it.
test:
	$(GO) test -race ./...
	$(GO) test -run Allocates ./...
	$(GO) test ./tools/...

# test-hammer: only the concurrency hammer tests (corpus sharing,
# server lifecycle) under the race detector — the quick loop for lock
# or sharing changes.
test-hammer:
	$(GO) test -race -run Hammer ./...

# perfbench-test: vet and self-test the repository benchmark, a module of
# its own (perfbench/go.mod) that the root ./... does not reach. It
# compiles against the root package cdt and internal/bayesopt, core,
# datasets/sge, engine, modelstore, pattern, rules, server and trace, so
# an API change there that breaks the benchmark fails here.
perfbench-test:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# examples: run every program under examples/ end to end and diff its
# stdout against the committed examples/<name>/stdout.golden; a non-zero
# exit or any difference fails the target. After an intended output
# change, re-record a golden with
# `go run ./examples/<name> > examples/<name>/stdout.golden`.
examples:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d > "$$out"; \
		diff -u "$${d}stdout.golden" "$$out"; \
	done

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-trace: the traced/untraced serving pair behind the tracing
# overhead gate (<3% median with sampling off; REPORT.md). One
# iteration in CI proves both paths run; pass BENCHTIME=2s and -count
# locally when measuring.
BENCHTIME ?= 1x
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkServerBatchDetect(Traced)?$$' \
		-benchtime=$(BENCHTIME) ./internal/server

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# loc: non-test Go lines per package, the count CHANGES.md quotes
# (`cat $(ls <dir>/*.go | grep -v _test.go) | wc -l`), then the total.
loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./... ./tools/...); do \
		files=$$(ls $$d/*.go | grep -v _test.go) || continue; \
		n=$$(cat $$files | wc -l); total=$$((total + n)); \
		rel=$${d#$(CURDIR)}; rel=$${rel#/}; printf '%7d  %s\n' $$n "$${rel:-.}"; \
	done; printf '%7d  total\n' $$total

# vuln: advisory scan; requires network to fetch govulncheck and the
# vulnerability database, so it is gated on availability.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; \
	fi
