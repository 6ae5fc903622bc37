#!/bin/sh
# End-to-end smoke test of topl_cli: generate -> index build -> query ->
# dtopl on a tiny graph, then the flag-validation contract: an unknown flag
# or a malformed number must exit 1 with an InvalidArgument error instead of
# silently falling back to a default.
#
# Usage: sh tests/cli_smoke.sh path/to/topl_cli
set -eu

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$cli" generate --kind=uni --vertices=300 --seed=7 --out=graph.bin
"$cli" index build --graph=graph.bin --out=index.idx --rmax=2
query="--graph=graph.bin --index=index.idx --keywords=1,8,21 --k=3 --r=2 \
--theta=0.2 --L=3"
# $query is left unquoted on purpose: it is a list of flags.
"$cli" query $query > query.out
grep -q '^stats:' query.out
"$cli" dtopl $query --algorithm=wp > dtopl.out
grep -q '^diversity score' dtopl.out

# expect_invalid FLAG=VALUE ARGS...: runs `topl_cli ARGS... --FLAG=VALUE`
# and requires exit status 1 with an InvalidArgument message naming --FLAG.
expect_invalid() {
  bad=$1
  shift
  status=0
  "$cli" "$@" "--$bad" > /dev/null 2> err.out || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "InvalidArgument.*--${bad%%=*}" err.out
  then
    echo "expected InvalidArgument (got exit $status): topl_cli $* --$bad" >&2
    cat err.out >&2
    exit 1
  fi
}

# Unknown flags: the CLI has no shard-count option, and passing one must fail
# rather than silently build or serve an unsharded index.
expect_invalid shards=2 query $query
expect_invalid shards=4 index build --graph=graph.bin --out=never.idx
test ! -e never.idx
# Malformed numbers: no silent 0, no ignored trailing garbage, no wrap-around.
expect_invalid k=abc query $query
expect_invalid theta=0.2x query $query
expect_invalid L=-1 dtopl $query

echo "cli_smoke: OK"
