#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tcp-ring --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' span files all go under .bench_build (or $CARGO_TARGET_DIR
# when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

bin=$out/perfbench
(cd perfbench && go build -o "$bin.new.$$" .) || {
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
}
mv -f "$bin.new.$$" "$bin"
exec "$bin" --trace-dir "$out/traces" "$@"
