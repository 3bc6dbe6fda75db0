GO ?= go

.PHONY: all build test vet fmt-check check bench bench-control bench-json profile \
	experiments harness-smoke harness-smoke-race snapshot-gate fuzz soak loc clean

all: build

build:
	$(GO) build ./...

# The benchmark/ directory is its own Go module (replace pplb => ../), so
# the root ./... pattern does not reach it; its smoke tests run separately.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test .

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Quick-variant experiment run with machine-readable shape checks — the CI
# gate that the paper artifacts still reproduce.
experiments:
	$(GO) run ./cmd/pplb-bench -checks checks.json > /dev/null
	@echo "experiment shape checks passed (checks.json)"

check: fmt-check vet build test experiments

# Short-benchtime tick benchmarks, one BenchmarkTick sub-benchmark per
# scenario: quick enough for CI, still catches order-of-magnitude
# regressions. Override for a longer sample, e.g. `make bench BENCHTIME=2s`;
# performance claims come from benchmark/run.sh, not from these.
BENCHTIME ?= 0.2s

bench:
	$(GO) test -run '^$$' -bench BenchmarkTick -benchmem -benchtime $(BENCHTIME) .

# The 1M-node control plane, one iteration each: topology build, link
# parameters, a one-node Leave+Commit and a repeat Snapshot. Each is a
# fraction of a second; an O(E log E) or per-edge map cost creeping back into
# set-up or reconfiguration shows up here as seconds.
bench-control:
	$(GO) test -run '^$$' -bench BenchmarkControlPlane1M -benchmem -benchtime 1x .

bench-json:
	$(GO) run ./cmd/pplb-bench -benchjson bench.json

# The -benchjson record plus CPU + heap profiles of the tick benchmarks via
# pplb-bench's pprof flags. Inspect with `go tool pprof
# profiles/bench.cpu.pprof` (top, list, web).
PROFILE_DIR ?= profiles

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/pplb-bench -benchjson $(PROFILE_DIR)/bench.json \
		-cpuprofile $(PROFILE_DIR)/bench.cpu.pprof -memprofile $(PROFILE_DIR)/bench.mem.pprof
	@echo "profiles written to $(PROFILE_DIR)/"

# Scenario-fuzzing harness (see internal/harness and the README's
# "Testing & fuzzing" section). harness-smoke is the fast merge-gate soak;
# fuzz and soak are the longer local/nightly variants.
FUZZTIME ?= 60s
SOAK ?= 5000

harness-smoke:
	$(GO) test -short -count=1 -run TestHarnessSmoke ./internal/harness -v

# The same 220-scenario smoke under the race detector: every generated
# scenario steps a Workers=N engine, its Workers=1 twin and the full-sweep
# active-set twin in lockstep, so this races the active-set bookkeeping
# (atomic bitset marks from concurrent shard workers) across the whole
# scenario space, not just the hand-written engine tests.
harness-smoke-race:
	$(GO) test -race -short -count=1 -run TestHarnessSmoke ./internal/harness -v

# The snapshot/resume merge gate: a 220-scenario smoke on a seed corpus
# disjoint from harness-smoke's, exercising the snapshot twin (mid-run
# snapshot, byte-equal round-trip, restored engine in lockstep with the
# primary, full-state byte comparison at every check tick) across every
# topology family and policy. Violations shrink and replay like any other.
snapshot-gate:
	$(GO) test -short -count=1 -run TestSnapshotGate ./internal/harness -v

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME) ./internal/harness

# The artifact dir must be absolute: `go test ./internal/harness` runs the
# test binary with the package directory as its working directory, so a
# relative path would land the replays in internal/harness/ instead of here.
soak:
	PPLB_HARNESS_SOAK_COUNT=$(SOAK) PPLB_HARNESS_ARTIFACT_DIR=$(CURDIR)/harness-artifacts \
		$(GO) test -count=1 -run TestHarnessSoak -timeout 60m ./internal/harness -v

# Go source line counts, non-test and test files apart, for the root module
# and for the nested benchmark/ module (hidden directories such as the
# benchmark's build cache are skipped). The before/after difference is the
# net Go line figure a change reports.
loc:
	@count() { d=$$1; shift; find $$d -path "$$d/.*" -prune -o -path ./benchmark -prune -o \
		-type f "$$@" -print0 | xargs -0 cat | wc -l; }; \
	printf '%-10s %9s %9s\n' module non-test test; \
	for m in . benchmark; do \
		printf '%-10s %9d %9d\n' $$m \
			$$(count $$m -name '*.go' ! -name '*_test.go') $$(count $$m -name '*_test.go'); \
	done

# Remove build/test artifacts: compiled test binaries (go test -c output),
# generated JSON records, and harness replay artifacts.
clean:
	rm -f *.test */*.test */*/*.test checks.json bench.json
	rm -rf harness-artifacts internal/harness/harness-artifacts profiles
