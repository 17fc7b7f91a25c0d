#!/usr/bin/env bash
# Builds the dimd benchmark from this checkout's sources, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash dimbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, temp files and every run's data dirs live
# in .bench_build/ at the root, so nothing is written outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

# The commit stamp comes from git when the checkout is a repository; git is
# not allowed to look above the checkout for one.
GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
export GIT_CEILING_DIRECTORIES
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=false
if [[ "$commit" != unknown && -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
    dirty=true
fi

(cd dimbench && go build -buildvcs=false -ldflags "-X main.commit=$commit -X main.dirty=$dirty" -o "$out/dimbench" .)
exec "$out/dimbench" "$@"
