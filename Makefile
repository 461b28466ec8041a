# Tier-1 verification: everything a PR must keep green.
.PHONY: verify build test vet lint race storecheck check-tests check-seams lines bench-module kernel-bench profile golden golden-write bench-json fuzz-smoke fmt-check

verify: vet build test check-tests check-seams bench-module

vet:
	go vet ./...

# Static analysis: go vet plus staticcheck. CI installs staticcheck pinned
# (see .github/workflows/ci.yml); locally the staticcheck half is skipped
# with a note when the binary isn't on PATH, so `make lint` never requires
# a network fetch.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (CI pins staticcheck 2024.1.1)"; \
	fi

build:
	go build ./...

test:
	go test ./...

# Concurrency-sensitive packages under the race detector (includes the
# experiment harness's worker pool and the chaos kill-schedule scenarios).
race:
	go test -race ./internal/metrics ./internal/sim ./internal/qos ./internal/gateway ./internal/fpindex ./internal/hitset ./internal/tiering ./internal/rados ./internal/core ./internal/chaos ./internal/harness ./internal/experiments

# The aliasing guard: replicas, snapshots and borrowers share payload bytes on
# the promise that nobody writes to them (DESIGN.md §9). This build checksums
# every shared payload and panics, naming key and field, when one changes.
storecheck:
	go test -tags storecheck ./internal/store ./internal/rados ./internal/core ./internal/client ./internal/gateway

# Every internal package must ship tests.
check-tests:
	sh scripts/check-tests.sh

# Only internal/rados/osd.go may change an OSD's objects or name its
# fingerprint index (besides fpindex.go's attach/stats/verify), and only
# internal/store may write through a store.Object's fields.
check-seams:
	sh scripts/check-seams.sh

# The line counts PR messages report: non-test Go outside the benchmark
# module and its build cache, then the two packages ROADMAP item 3 targets.
lines:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@printf 'internal/core:              '; find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/rados:             '; find internal/rados -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# The benchmark (bench/, the command BENCHMARK.json names) is a module of its
# own, invisible to the root ./... patterns: vet and test it here so drift in
# the internal/* API it imports fails verify, not the next benchmark run.
bench-module:
	cd bench && go vet . && go test .

# Kernel hot-path microbenchmarks: the DES engine and the metrics/trace
# primitives every simulated I/O passes through. CI runs these so dispatch
# cost and allocs/op regressions show up in review.
kernel-bench:
	go test -run NONE -bench=. -benchmem ./internal/sim ./internal/metrics

# CPU + heap profile of the golden sweep — the kernel's real workload.
# Inspect with `go tool pprof profiles/sweep.cpu.pprof`.
profile:
	mkdir -p profiles
	go run ./cmd/dedupbench -scale 0.25 -results '' -cpuprofile profiles/sweep.cpu.pprof -memprofile profiles/sweep.mem.pprof all

# Fail if any file needs gofmt (same check CI runs).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Golden regression gate: re-run the sweep at the snapshot scale and fail
# with a per-cell diff on any drift. CI runs exactly this target.
golden:
	go run ./cmd/dedupbench -scale 0.25 -results '' -golden check all

# Regenerate the snapshots after an intentional, reviewed number shift.
golden-write:
	go run ./cmd/dedupbench -scale 0.25 -results '' -golden write all

# Machine-readable sweep: canonical JSON per experiment plus a wall-clock
# summary; CI uploads results/ as an artifact.
bench-json:
	go run ./cmd/dedupbench -scale 0.25 -results results -timing results/BENCH_pr.json all

# Fuzz smoke: 30s per fuzz target over the parsers that guard on-disk and
# operator input (ref keys, SLO specs). Regression corpora run in `make
# test`; this step searches for new inputs.
fuzz-smoke:
	go test -run NONE -fuzz FuzzRefKeyRoundTrip -fuzztime 30s ./internal/core
	go test -run NONE -fuzz FuzzParseSLO -fuzztime 30s ./internal/gateway
