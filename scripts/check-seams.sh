#!/bin/sh
# Fails if code outside the osd type (internal/rados/osd.go) changes an OSD's
# objects directly, or names the fingerprint index outside osd.go/fpindex.go:
# every store mutation must go through the seam that keeps index = store.
# Also fails if a non-test file outside internal/store assigns to or through a
# store.Object's Data, Xattr or Omap, builds one from parts, or copies into
# its Data: replicas, snapshots and borrowers alias those bytes (DESIGN.md §9
# "Who may share a buffer"), so only the store, which knows who else holds
# them, may write there. Recovery and scrub compare them and pass them on.
# And fails if the intent primitives or releaseRefFn are named, or a chunk map
# is written, outside refcount.go: only Store.rebind runs intent -> bind ->
# commit -> release and it is the chunk map's one writer (DESIGN.md §6.3). Tests
# drive them directly, and audit.go mentions commitIntentFn in a comment.
# And fails if internal/core meets the dedup rate limit anywhere but Engine.pace
# (engine.go): flushObject decides once whether a flush is paced (DESIGN.md §7),
# so a new flush path cannot forget that an explicit drain is not.
set -eu
cd "$(dirname "$0")/.."
bad=0
if grep -rnE --include='*.go' '\b(putIntentFn|commitIntentFn|abortIntentFn|releaseRefFn)\b|SetXattr\(XattrChunkMap' . |
	grep -vE '^\./(\.bench_build/|internal/core/refcount\.go:|internal/core/[a-z_]*_test\.go:)|^\./internal/core/audit\.go:[0-9]+:[[:space:]]*//'; then
	echo "check-seams: the lines above name a reference primitive or write a chunk map outside Store.rebind's file (internal/core/refcount.go)" >&2
	exit 1
fi
if [ "$(grep -cE 'WaitTurn\(.*qos\.Dedup' internal/core/*.go | grep -vE '_test\.go:|:0$')" != internal/core/engine.go:1 ]; then
	echo "check-seams: in internal/core only Engine.pace (engine.go) may call WaitTurn for qos.Dedup" >&2
	exit 1
fi
for f in $(grep -rl --include='*.go' '"dedupstore/internal/store"' . | grep -v -e '_test\.go$' -e '^\./internal/store/' -e '^\./\.bench_build/'); do
	if grep -nE '\.(Data|Xattr|Omap)(\[[^]]*\])* *=[^=]|store\.Object\{[^}]|(copy|clear)\([^,)]*\.Data\b' "$f" /dev/null; then
		bad=1
	fi
done
if [ $bad -ne 0 ]; then
	echo "check-seams: the lines above write to a store.Object's payload outside internal/store" >&2
	exit 1
fi
cd internal/rados
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
