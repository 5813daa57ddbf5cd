#!/usr/bin/env bash
# Runs the benchmark from any directory of a checkout. The Go build cache
# is kept inside the checkout unless the caller has chosen one, so a run
# reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="${GOCACHE:-$here/../.bench_build/gocache}"
cd "$here"
exec go run . "$@"
