#!/bin/sh
# scenerec_serve refuses out-of-range serving flags before it generates a
# dataset or trains: it exits 1, names the flag on stderr, prints nothing on
# stdout and writes no training snapshot.
#
#   sh serve_flags_test.sh <path/to/scenerec_serve>
set -u
serve="$1"
dir=$(mktemp -d "${TMPDIR:-/tmp}/scenerec_serve_flags.XXXXXX") || exit 1
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

for flag in max_batch clients requests; do
  "$serve" --scale=0.01 --$flag=0 --snapshot_dir="$dir/snapshots" \
    > "$dir/out" 2> "$dir/err"
  [ $? -eq 1 ] || fail "--$flag=0 did not exit 1: $(cat "$dir/err")"
  grep -q "$flag" "$dir/err" ||
    fail "--$flag=0: stderr does not name the flag: $(cat "$dir/err")"
  [ ! -s "$dir/out" ] || fail "--$flag=0 printed: $(cat "$dir/out")"
  [ -z "$(ls -A "$dir/snapshots" 2> /dev/null)" ] ||
    fail "--$flag=0 trained before refusing"
done

echo "PASS"
