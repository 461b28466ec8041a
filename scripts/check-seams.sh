#!/bin/sh
# Fails if code outside the osd type (internal/rados/osd.go) changes an OSD's
# objects directly, or names the fingerprint index outside osd.go/fpindex.go:
# every store mutation must go through the seam that keeps index = store.
# Also fails if a non-test file outside internal/store assigns to or through a
# store.Object's Data, Xattr, Omap or Version, builds one from parts, or copies
# into its Data: replicas, snapshots and borrowers alias those bytes (DESIGN.md
# §9 "Who may share a buffer"), so only the store, which knows who else holds
# them, may write there. Recovery and scrub compare them and pass them on; a
# version is stamped only by Apply, from its Txn (DESIGN.md §6.1).
# And fails if internal/rados mints versions in more than one place: every
# mutation's version comes from Cluster.nextVersion (cluster.go).
# And fails if the intent primitives or releaseRefFn are named, or a chunk map
# is written, outside refcount.go: only Store.rebind runs intent -> bind ->
# commit -> release and it is the chunk map's one writer (DESIGN.md §6.3). Tests
# drive them directly, and audit.go mentions commitIntentFn in a comment.
# And fails if internal/core meets the dedup rate limit anywhere but Engine.pace
# (engine.go): flushObject decides once whether a flush is paced (DESIGN.md §7),
# so a new flush path cannot forget that an explicit drain is not.
# And fails if a non-test file in internal/core or internal/rados calls
# GoDaemon: a periodic background service is a sim.Loop, which states its
# schedule and its stop-and-restart rule once (DESIGN.md §9), and work that
# ends with its caller, such as a drain's per-OSD agents, is a child process
# (sim.FanOut), not a daemon.
# And fails if a non-test file outside internal/qos names weightScale,
# lastFinish or bits.Mul64: fair queueing and rate limiting exist once, in
# qos.FairQueue and qos.Limiter (DESIGN.md §10), whoever they meter.
# And fails if pgLock( is called anywhere but Cluster.lockPG (cluster.go): every
# PG-lock acquisition is then timed into the pool's wait/hold histograms, and
# what a PG lock covers is decided by lockPG's callers alone (DESIGN.md §9).
# And fails if lockPG( is called anywhere but replMutate (io.go), ecMutate
# (ecio.go) and Cluster.settle (recovery.go): each pool kind has one mutation
# path, so a PG lock's scope is decided at one site per pool kind, and
# recovery waits out an EC mutation at one more.
# And fails if a non-test file in internal/core calls FingerprintID( outside
# names.go, refcount.go (where it is defined) and local.go (the analysis
# helpers): the store names bytes through Store.name, whose memo is the one
# shortcut around SHA-256 (DESIGN.md §9), so no site keeps a second one.
# And fails if a non-test file in internal/core, internal/rados or
# internal/store declares a func-typed field, variable or type (or a struct
# type of them) named like a hook: a window a test needs is a named point
# (sim.Proc.Point), one mechanism a seed can drive (DESIGN.md §9).
# And fails if a non-test file calls SetPoints(: only tests register a
# point handler, so the product's runs, and their sim digests, never see one.
# And fails if partitionRefKeys( appears outside internal/core/refcount.go,
# test files included: a reader of a chunk's reference table goes through
# chunkRefs or listChunkRefs, and the one check that joins the tables with the
# bindings is Store.Scrub (DESIGN.md §5), so no second one grows in a test
# helper.
# And fails if parseRefKey( or parseIntentKey( appears outside refcount.go and
# its test: the reference-key grammar is parsed once, into a refTable
# (DESIGN.md §5).
# And fails if a non-test file in internal/core calls ListObjects( outside
# walk.go and local.go (which analyses raw pools): every whole-store pass
# visits the one namespace walk (DESIGN.md §9).
# And fails if a non-test file outside internal/rados/cluster.go calls .Use( on
# a link scheduler (a host's nicSched, a gateway's nic): every link charge is a
# Cluster.netSend, which alone decides that a hop between two ends on one host
# occupies no link (DESIGN.md §9 "Network hops").
# And fails if a non-test file in internal/experiments declares a row type
# (type …Row): an experiment builds its tables from its runs' cells, so no
# typed-row layer sits between a run and its table (EXPERIMENTS.md).
set -eu
cd "$(dirname "$0")/.."
bad=0
if grep -rnE --include='*.go' '\b(putIntentFn|commitIntentFn|abortIntentFn|releaseRefFn)\b|SetXattr\(XattrChunkMap' . |
	grep -vE '^\./(\.bench_build/|internal/core/refcount\.go:|internal/core/[a-z_]*_test\.go:)|^\./internal/core/audit\.go:[0-9]+:[[:space:]]*//'; then
	echo "check-seams: the lines above name a reference primitive or write a chunk map outside Store.rebind's file (internal/core/refcount.go)" >&2
	exit 1
fi
pglock=$(find . -name '*.go' ! -path './.bench_build/*' -exec awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/pgLock\(/ && !/^func \(c \*Cluster\) pgLock\(/ && fn !~ /\) lockPG\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$pglock" ]; then
	echo "$pglock" >&2
	echo "check-seams: the lines above take a PG lock outside Cluster.lockPG (internal/rados/cluster.go), where every acquisition is timed" >&2
	exit 1
fi
lockpg=$(find . -name '*.go' ! -path './.bench_build/*' -exec awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/lockPG\(/ && !/^func \(c \*Cluster\) lockPG\(/ && fn !~ /\) (replMutate|ecMutate|settle)\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$lockpg" ]; then
	echo "$lockpg" >&2
	echo "check-seams: the lines above take a PG lock outside replMutate, ecMutate and Cluster.settle: a pool kind has one mutation path" >&2
	exit 1
fi
if grep -n 'GoDaemon(' $(ls internal/core/*.go internal/rados/*.go | grep -v '_test\.go$') >&2; then
	echo "check-seams: the lines above spawn a daemon in internal/core or internal/rados; a periodic loop is a sim.Loop (DESIGN.md §9), and a drain's agents are fan-out children that end with the call" >&2
	exit 1
fi
if grep -n 'FingerprintID(' $(ls internal/core/*.go | grep -vE '_test\.go$|/(names|refcount|local)\.go$') | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' >&2; then
	echo "check-seams: the lines above name bytes with FingerprintID in internal/core outside names.go, refcount.go and local.go; name them through Store.name (DESIGN.md §9)" >&2
	exit 1
fi
if grep -inE '^[[:space:]]*(type[[:space:]]+[[:alnum:]_]*hook[[:alnum:]_]*[[:space:]]+(func|struct)\b|(var[[:space:]]+)?[[:alnum:]_]*hook[[:alnum:]_]*([[:space:]]*,[[:space:]]*[[:alnum:]_]+)*[[:space:]]+func\b)' \
	$(ls internal/core/*.go internal/rados/*.go internal/store/*.go | grep -v '_test\.go$') >&2; then
	echo "check-seams: the lines above declare a func-typed hook in internal/core, internal/rados or internal/store; give the window a named point (sim.Proc.Point) instead (DESIGN.md §9)" >&2
	exit 1
fi
if grep -rn --include='*.go' 'SetPoints(' . | grep -vE '^\./\.bench_build/|^[^:]*_test\.go:|^[^:]*:[0-9]+:[[:space:]]*//|^\./internal/sim/point\.go:[0-9]+:func \(e \*Engine\) SetPoints\(' >&2; then
	echo "check-seams: the lines above register a named-point handler outside a test; only tests may, so product runs never reach one" >&2
	exit 1
fi
if grep -rn --include='*.go' 'partitionRefKeys(' . | grep -vE '^\./(\.bench_build/|internal/core/refcount\.go:)' >&2; then
	echo "check-seams: the lines above classify a reference table outside refcount.go; read it through chunkRefs or listChunkRefs, or check it with Store.Scrub" >&2
	exit 1
fi
if grep -rnE --include='*.go' '\b(parseRefKey|parseIntentKey)\(' . | grep -vE '^\./(\.bench_build/|internal/core/refcount(_test)?\.go:)' >&2; then
	echo "check-seams: the lines above parse a reference key outside refcount.go; take the parsed keys from a refTable (chunkRefs, listChunkRefs)" >&2
	exit 1
fi
if grep -n 'ListObjects(' $(ls internal/core/*.go | grep -vE '_test\.go$|/(walk|local)\.go$') >&2; then
	echo "check-seams: the lines above list a pool in internal/core outside walk.go and local.go; visit the namespace walk (eachObject, eachChunk) instead" >&2
	exit 1
fi
if grep -rnE --include='*.go' '\b(nicSched|nic)\.Use\(' . | grep -vE '^\./(\.bench_build/|internal/rados/cluster\.go:)|^[^:]*_test\.go:' >&2; then
	echo "check-seams: the lines above charge a network link outside Cluster.netSend (internal/rados/cluster.go), which alone decides whether a hop occupies one" >&2
	exit 1
fi
if grep -nE '\btype[[:space:]]+([[:alnum:]_]*Row|row)\b' $(ls internal/experiments/*.go | grep -v '_test\.go$') >&2; then
	echo "check-seams: the lines above declare a row type in internal/experiments; a run returns its table cells and the experiment builds its Table from them" >&2
	exit 1
fi
if grep -rnE --include='*.go' '\b(weightScale|lastFinish)\b|bits\.Mul64' . | grep -vE '^\./(\.bench_build/|internal/qos/)|^[^:]*_test\.go:'; then
	echo "check-seams: the lines above re-implement fair queueing or rate limiting outside internal/qos" >&2
	exit 1
fi
if [ "$(grep -cE 'WaitTurn\(.*qos\.Dedup' internal/core/*.go | grep -vE '_test\.go:|:0$')" != internal/core/engine.go:1 ]; then
	echo "check-seams: in internal/core only Engine.pace (engine.go) may call WaitTurn for qos.Dedup" >&2
	exit 1
fi
for f in $(grep -rl --include='*.go' '"dedupstore/internal/store"' . | grep -v -e '_test\.go$' -e '^\./internal/store/' -e '^\./\.bench_build/'); do
	if grep -nE '\.(Data|Xattr|Omap|Version)(\[[^]]*\])* *=[^=]|store\.Object\{[^}]|(copy|clear)\([^,)]*\.Data\b' "$f" /dev/null; then
		bad=1
	fi
done
if [ $bad -ne 0 ]; then
	echo "check-seams: the lines above write to a store.Object's payload or version outside internal/store" >&2
	exit 1
fi
cd internal/rados
mints=$(grep -nE 'lastVersion *(\+\+|--|[-+]?=[^=])' $(ls *.go | grep -v '_test\.go$') /dev/null || true)
if [ "$(printf '%s' "$mints" | grep -c .)" -gt 1 ]; then
	echo "$mints" >&2
	echo "check-seams: the lines above assign object versions in more than one place; only Cluster.nextVersion (internal/rados/cluster.go) mints one" >&2
	exit 1
fi
for f in *.go; do
	case $f in *_test.go | osd.go) continue ;; esac
	if grep -nE '\.store\.(Apply|Install|Clear)\(' "$f" /dev/null; then
		bad=1
	fi
	if [ "$f" != fpindex.go ] && grep -n 'fpidx' "$f" /dev/null; then
		bad=1
	fi
done
if [ $bad -ne 0 ]; then
	echo "check-seams: the lines above bypass the osd mutation seam (internal/rados/osd.go)" >&2
fi
exit $bad
