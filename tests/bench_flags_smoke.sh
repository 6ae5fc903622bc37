#!/bin/sh
# Flag validation of the standalone benches: an unknown flag, a malformed
# number or a missing value must exit non-zero with an InvalidArgument error
# before the bench builds anything, instead of silently running a default or
# a misread value (--vertices=8k is not 8 vertices). Each bench runs in an
# empty directory, and no BENCH_*.json may appear there.
#
# Usage: sh tests/bench_flags_smoke.sh path/to/bench ...
set -eu

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# expect_invalid BENCH FLAG=VALUE: runs `BENCH --FLAG=VALUE` and requires a
# non-zero exit with an InvalidArgument message naming --FLAG.
expect_invalid() {
  bench=$1
  bad=$2
  status=0
  "$bench" "--$bad" > /dev/null 2> err.out || status=$?
  if [ "$status" -eq 0 ] || ! grep -q "InvalidArgument.*--${bad%%=*}" err.out
  then
    echo "expected InvalidArgument (got exit $status): $bench --$bad" >&2
    cat err.out >&2
    exit 1
  fi
}

for bench in "$@"; do
  expect_invalid "$bench" vertice=8000
  expect_invalid "$bench" seed=4x2
  expect_invalid "$bench" seed
done
if ls BENCH_*.json > /dev/null 2>&1; then
  echo "a bench wrote its JSON despite a rejected flag" >&2
  exit 1
fi

echo "bench_flags_smoke: OK"
