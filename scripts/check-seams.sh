#!/bin/sh
# Fails if code outside the osd type (internal/rados/osd.go) changes an OSD's
# objects directly, or names the fingerprint index outside osd.go/fpindex.go:
# every store mutation must go through the seam that keeps index = store.
set -eu
cd "$(dirname "$0")/../internal/rados"
bad=0
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
