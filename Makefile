# qucloud-go — build, test, and experiment targets.

GO ?= go

.PHONY: all build fmt vet lint loc test test-short race chaos bench benchmark benchmark-compare bench-selftest fuzz-smoke cover experiments examples clean

all: build test

build:
	$(GO) build ./...

# Formatting gate: fails, listing the offenders, when gofmt would
# rewrite any file.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# Domain-specific static checks over the non-test files, one per
# invariant: determinism (norandglobal, nowallclock, maporder), float
# safety (floateq), concurrency hygiene (guardedby, lockorder,
# atomicmix), cancellation plumbing (ctxflow), and output discipline
# (noprint); see internal/lint and `go run ./cmd/qulint -list`.
lint:
	$(GO) run ./cmd/qulint ./...

# Non-test Go lines outside bench/ and the analyzer fixtures under
# testdata/: the size ROADMAP asks every PR to report (the delta goes in
# CHANGES.md). One line per internal/<pkg>, cmd/<cmd>, examples and the
# root package (.), then the total.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*'
loc:
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { split($$2, p, "/"); k = p[2] ~ /\.go$$/ ? "." : p[2]; if (k == "internal" || k == "cmd") k = k "/" p[3]; n[k] += $$1 } END { for (k in n) printf "%6d %s\n", n[k], k | "sort -k2" }'
	@$(LOC_FILES) | xargs wc -l | tail -1

# The default test path runs the fmt gate, vet and qulint first, then
# the full suite, then the race detector over the concurrent packages
# (the service, its scheduler dependencies and the CDAP region memo they
# share, the daemon, and the sharded simulation/compile engines plus
# their worker pool), the chaos suite,
# every example (so one that builds but crashes fails the run), and
# last the benchmark harness's own vet + tests: bench/ is its own
# module, so nothing above compiles it against the internal/ packages.
test: fmt vet lint
	$(GO) test ./...
	$(GO) test -race ./internal/service/... ./internal/fleet/... ./internal/sched/... ./internal/partition/... ./internal/cloudsim/... ./cmd/qucloudd/... ./internal/sim/... ./internal/core/... ./internal/pool/... ./internal/ccache/...
	$(MAKE) chaos
	$(MAKE) examples
	$(MAKE) bench-selftest

# Fault-injection chaos suite: drives the full qucloudd HTTP service
# through injected panics, timeouts, and error bursts under the race
# detector (see internal/service/chaos_test.go and DESIGN.md §10).
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/service/...

# Full race-detector sweep over every package (slow).
race:
	$(GO) test -race ./...

# Short test run (skips the large-chip stress cases).
test-short:
	$(GO) test -short ./...

# Developer micro-benchmarks (`go test -bench`): printed, recorded
# nowhere and gated by nothing. Performance numbers and the regression
# gate come from `make benchmark` / `make benchmark-compare` below.
bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over the untrusted inputs (QASM source, device-spec
# JSON, and arbitrary requests against the daemon's HTTP handler), over
# the packed stabilizer tableau against the boolean one, over the
# simulator's random stream against math/rand, and over the tableau
# engine's Pauli frames against a per-trial tableau. Go allows
# one -fuzz target per invocation, so each gets its own ~10s budget; the
# checked-in corpora under testdata/fuzz replay on every plain `go test`
# run as well.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseQASMString -fuzztime 10s ./internal/circuit
	$(GO) test -run '^$$' -fuzz FuzzDeviceSpec -fuzztime 10s ./internal/arch
	$(GO) test -run '^$$' -fuzz FuzzPackedTableau -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzStream -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzLatticeFrames -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzHandler -fuzztime 10s ./internal/service

# The repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload untraced into .bench_out; two result files compared under the
# benchmark's own bounds (exit 1 on a regression); the harness's own
# vet + tests at smoke scale, which `make test` runs last.
benchmark:
	bash bench/run.sh -workload all -trace 0 -out .bench_out -commit $$(git rev-parse HEAD)

benchmark-compare:
	bash bench/run.sh -compare $(A) $(B)

bench-selftest:
	cd bench && $(GO) vet . && $(GO) test .

cover:
	$(GO) test -cover ./...

# Text-table reproduction of the paper's evaluation section.
experiments: build
	$(GO) run ./cmd/quexp -exp all

examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiprogramming
	$(GO) run ./examples/cloudscheduler
	$(GO) run ./examples/chipexplorer
	$(GO) run ./examples/cloudservice

clean:
	$(GO) clean ./...
