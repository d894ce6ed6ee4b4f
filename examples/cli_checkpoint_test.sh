#!/bin/sh
# Checkpoint round trip of scenerec_cli: `train --ckpt` writes an SRSNAP1
# snapshot, `evaluate` and `recommend` bind it zero-copy, and the checkpoint
# is refused for another --model and for an unknown --retrieval backend.
#
#   sh cli_checkpoint_test.sh <path/to/scenerec_cli>
set -u
cli="$1"
dir=$(mktemp -d "${TMPDIR:-/tmp}/scenerec_cli_ckpt.XXXXXX") || exit 1
trap 'rm -rf "$dir"' EXIT
ckpt="$dir/bpr.ckpt"
flags="--scale=0.01 --ckpt=$ckpt"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" train --model=BPR-MF $flags --epochs=1 || fail "train"
"$cli" evaluate --model=BPR-MF $flags || fail "evaluate"
"$cli" recommend --model=BPR-MF $flags --user=3 || fail "recommend"

# A BPR-MF checkpoint does not bind into NCF; the error names the file and
# both models.
"$cli" recommend --model=NCF $flags --user=3 2> "$dir/err"
[ $? -eq 1 ] || fail "recommend --model=NCF did not exit 1"
grep -q "$ckpt" "$dir/err" && grep -q "BPR-MF" "$dir/err" &&
  grep -q "NCF" "$dir/err" ||
  fail "refusal does not name the file and both models: $(cat "$dir/err")"

# The int8 backends are gone.
"$cli" recommend --model=BPR-MF $flags --user=3 --retrieval=exact_sq8 \
  2> "$dir/err"
[ $? -eq 1 ] || fail "--retrieval=exact_sq8 did not exit 1"

echo "PASS"
