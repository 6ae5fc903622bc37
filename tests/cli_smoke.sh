#!/bin/sh
# End-to-end smoke test of topl_cli: generate -> index build -> query ->
# dtopl -> batch on a tiny graph, then the flag-validation contract: an unknown flag
# or a malformed number must exit 1 with an InvalidArgument error instead of
# silently falling back to a default. Last, an `index migrate` round trip with
# `index inspect` on both artifacts, and a query against a file that is not an
# index.
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

# batch answers a TopL line and a dtopl line, one report line each; a
# malformed line fails the whole file with InvalidArgument before serving.
printf '1,8,21 3 2 0.2 3\n1,8 3 2 0.2 3 dtopl\n' > queries.txt
"$cli" batch --graph=graph.bin --index=index.idx --queries=queries.txt \
  > batch.out
test "$(grep -c '^query 1: ' batch.out)" -eq 1
test "$(grep -c '^query 2 (dtopl): ' batch.out)" -eq 1
test "$(grep -c '^query ' batch.out)" -eq 2
printf '1,8,21 3 2 0.2x 3\n' > bad_queries.txt
status=0
"$cli" batch --graph=graph.bin --index=index.idx --queries=bad_queries.txt \
  > /dev/null 2> err.out || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'InvalidArgument' err.out; then
  echo "expected InvalidArgument for a malformed batch line (got $status)" >&2
  cat err.out >&2
  exit 1
fi

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
# Only a boolean flag may go without a value.
expect_invalid k query $query
# The CLI has no mmap prefault / huge-page flags.
expect_invalid mmap-populate=1 query $query
# TOPLIDX2 is the only index format: there is no --format flag.
expect_invalid format=legacy index build --graph=graph.bin --out=never.idx
test ! -e never.idx

# migrate re-encodes raw -> compressed -> raw back to the original bytes.
"$cli" index migrate --in=index.idx --out=packed.idx --compress=1
"$cli" index migrate --in=packed.idx --out=unpacked.idx --compress=0
cmp index.idx unpacked.idx

# expect_inspect_ok FILE: `index inspect` reports the one artifact version
# (3) with every checksum matching, the identity g.extids section, and no
# keyword-signature section or field.
expect_inspect_ok() {
  "$cli" index inspect --artifact="$1" > inspect.out
  if ! grep -q "^$1: TOPLIDX2 v3, .*checksums OK\$" inspect.out ||
     ! grep -q '^g\.extids ' inspect.out ||
     grep -q 'signature' inspect.out; then
    echo "unexpected index inspect output for $1" >&2
    cat inspect.out >&2
    exit 1
  fi
}
expect_inspect_ok index.idx
expect_inspect_ok packed.idx

# A file that is not an index fails the query and is left as it was.
printf 'not an index\n' > junk.idx
cp junk.idx junk.orig
status=0
"$cli" query --graph=graph.bin --index=junk.idx --keywords=1,8,21 \
  > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit 1 for a non-index --index (got $status)" >&2
  exit 1
fi
cmp junk.idx junk.orig

echo "cli_smoke: OK"
