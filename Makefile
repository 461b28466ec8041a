# Tier-1 verification: everything a PR must keep green.
.PHONY: verify build test vet lint race storecheck check-tests check-seams compare-test lines bench-module kernel-bench bench-smoke bench-pairs digest-check model-check profile golden golden-write bench-json fuzz-smoke fmt-check

verify: vet build test check-tests check-seams compare-test bench-module

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
# A trace sink has no lock, so every package that writes to or reads a
# cluster's sink is here.
race:
	go test -race ./internal/metrics ./internal/sim ./internal/qos ./internal/gateway ./internal/fpindex ./internal/hitset ./internal/tiering ./internal/rados ./internal/core ./internal/client ./internal/chaos ./internal/harness ./internal/experiments ./cmd/dedupctl

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

# The verdicts of scripts/compare.sh (digest-check, model-check, bench-pairs),
# replayed on canned result lines: one fixture per rule, nothing built or run.
compare-test:
	sh scripts/compare-test.sh

# The line counts PR messages report: non-test Go outside the benchmark
# module and its build cache, then the two packages ROADMAP item 5 targets,
# the kernel that code moved out of them lands in, the two whose sum ROADMAP
# item 9 reads, and CRUSH placement.
lines:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@printf 'internal/core:              '; find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/rados:             '; find internal/rados -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/sim:               '; find internal/sim -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/experiments:       '; find internal/experiments -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/harness:           '; find internal/harness -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/crush:             '; find internal/crush -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# The benchmark (bench/, the command BENCHMARK.json names) is a module of its
# own, invisible to the root ./... patterns: vet and test it here so drift in
# the internal/* API it imports fails verify, not the next benchmark run.
bench-module:
	cd bench && go vet . && go test .

# Kernel hot-path microbenchmarks: the DES engine (a sleep that continues in
# place and one that parks, among them) and the metrics/trace primitives
# every simulated I/O passes through, the erasure code's encode and
# reconstruct (the paper's EC 2+1 over one 32 KiB chunk among them), one
# dedup-scrub pass (host cost per chunk read and verified), naming a chunk
# through the name memo (hit and miss), flushing one object (sim-µs/op and
# B/op, with its dirty slots in one run and in sixteen) and draining a 64 MiB
# backlog (sim-µs/MiB and B/op). CI runs these so dispatch cost and allocs/op
# regressions show up in review.
kernel-bench:
	go test -run NONE -bench=. -benchmem ./internal/sim ./internal/metrics ./internal/ec
	go test -run NONE -bench 'ScrubChunkPool|Name|FlushObject|Drain' -benchmem ./internal/core

# The same packages' benchmarks, one iteration each: a check a benchmark makes
# (a b.Fatalf on a wrong result) runs in CI, which `go test ./...` never does.
bench-smoke:
	go test -run NONE -bench . -benchtime 1x ./internal/sim ./internal/metrics ./internal/ec ./internal/core

# The three checks ROADMAP.md's rules for claims ask for, each a mode of
# scripts/compare.sh: it builds REV in a git worktree and the working tree,
# runs the benchmark on both and judges the runs with scripts/compare.awk. None
# is a CI step: each builds and runs REV.
#
# Paired runs for a host-clock claim: the working tree against REV on one
# workload and seed, PAIRS alternating pairs, judged on METRIC. MODEL=-model
# skips the sim_digest check for a change that moves the simulated product on
# purpose.
REV ?= HEAD
WORKLOAD ?= maintain-recover
SEED ?= 1
PAIRS ?= 10
METRIC ?= host_cpu_s
bench-pairs:
	sh scripts/compare.sh pairs $(MODEL) $(REV) $(WORKLOAD) $(SEED) $(PAIRS) $(METRIC)

# The check that a host-only change left the simulated product alone: every
# workload at seeds 1-3 on the working tree and on REV, exit 1 on any
# sim_digest difference or failed op.
digest-check:
	sh scripts/compare.sh digest $(REV)

# The check for a model gain: every workload at seeds 1-10 on the working tree
# and on REV, every sim metric printed parent -> change; exit 1 unless METRIC
# on WORKLOAD is better at every seed, every run is correct with no failed op,
# and no sim metric is past its BENCHMARK.json bound.
model-check:
	sh scripts/compare.sh model $(REV) $(WORKLOAD) $(METRIC)

# CPU + heap profile of the golden sweep — the kernel's real workload.
# Inspect with `go tool pprof profiles/sweep.cpu.pprof`.
profile:
	mkdir -p profiles
	go run ./cmd/dedupbench -scale 0.25 -results '' -cpuprofile profiles/sweep.cpu.pprof -memprofile profiles/sweep.mem.pprof all

# Fail if any file needs gofmt (same check CI runs).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Golden regression gate: re-run the sweep at the snapshot scale and fail
# with a per-cell diff on any drift. CI runs exactly this target. The same run
# writes every experiment's canonical JSON and the wall-clock summary
# (results/BENCH_pr.json) before it checks, so CI uploads them from here.
golden:
	go run ./cmd/dedupbench -scale 0.25 -results results -timing results/BENCH_pr.json -golden check all

# Regenerate the snapshots after an intentional, reviewed number shift, then
# assert the paper's shapes on what was written: a regeneration that drops a
# claim fails here, before it is committed.
golden-write:
	go run ./cmd/dedupbench -scale 0.25 -results '' -golden write all
	go test -count=1 -run Shape ./internal/experiments

# Machine-readable sweep: canonical JSON per experiment plus a wall-clock
# summary, without the golden check (the sweep ROADMAP.md's wall-clock rule
# times; `make golden` writes the same files in CI).
bench-json:
	go run ./cmd/dedupbench -scale 0.25 -results results -timing results/BENCH_pr.json all

# Fuzz smoke: 30s per fuzz target over the parsers and decoders that guard
# on-disk and operator input (ref keys, chunk maps, block traces, SLO specs,
# bloom filters), and over the erasure code's decode (any payload, any
# erasure it tolerates).
# Regression corpora run in `make test`; this step searches for new inputs.
fuzz-smoke:
	go test -run NONE -fuzz FuzzRefKeyRoundTrip -fuzztime 30s ./internal/core
	go test -run NONE -fuzz FuzzUnmarshalChunkMap -fuzztime 30s ./internal/core
	go test -run NONE -fuzz FuzzParseTrace -fuzztime 30s ./internal/workload
	go test -run NONE -fuzz FuzzParseSLO -fuzztime 30s ./internal/gateway
	go test -run NONE -fuzz FuzzBloomUnmarshal -fuzztime 30s ./internal/bloom
	go test -run NONE -fuzz FuzzECReconstruct -fuzztime 30s ./internal/ec
