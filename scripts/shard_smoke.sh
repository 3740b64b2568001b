#!/usr/bin/env bash
# End-to-end smoke of the sharded scan workflow through the trigen binary:
# generate -> 4x `scan --shard` (one worker killed partway and resumed from
# its checkpoint) -> `merge` -> diff against the unsharded scan.  The CSV
# sections (everything but the '#' comment lines, which carry timings) must
# be byte-identical.
#
# usage: scripts/shard_smoke.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: shard_smoke.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")   # survive the cd below when given a relative path
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 64 --samples 256 --seed 9 \
  --plant 3,17,41 --model xor3 --effect 0.8

# Reference: one unsharded scan.
"$TRIGEN" scan d.tg --top 12 --threads 2 > full.txt

# 4-shard plan; worker 2 is killed after ~1000 of its ~10k ranks...
for i in 0 1 3; do
  "$TRIGEN" scan d.tg --shards 4 --shard "$i" --top 12 --threads 2 \
    --out "s$i.shard" > /dev/null
done
rc=0
"$TRIGEN" scan d.tg --shards 4 --shard 2 --top 12 --threads 2 \
  --out s2.shard --checkpoint s2.ckpt --checkpoint-every 500 \
  --stop-after 1000 > /dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "expected the killed shard to exit with code 3, got $rc" >&2
  exit 1
fi
if [ -e s2.shard ]; then
  echo "killed shard must not leave a result file" >&2
  exit 1
fi

# ...and a fresh invocation resumes from the checkpoint instead of
# rescanning.
"$TRIGEN" scan d.tg --shards 4 --shard 2 --top 12 --threads 2 \
  --out s2.shard --checkpoint s2.ckpt --checkpoint-every 500 \
  | grep -q '^# resumed from checkpoint' \
  || { echo "resume did not use the checkpoint" >&2; exit 1; }

"$TRIGEN" merge s0.shard s1.shard s2.shard s3.shard > merged.txt

if ! diff <(grep -v '^#' full.txt) <(grep -v '^#' merged.txt); then
  echo "merged shard results differ from the unsharded scan" >&2
  exit 1
fi

# Two-level tree merge: two contiguous intermediate merges, then the
# final full-coverage merge — must equal the single-level merge.
"$TRIGEN" merge --partial s0.shard s1.shard --out left.shard > /dev/null
"$TRIGEN" merge --partial s2.shard s3.shard --out right.shard > /dev/null
"$TRIGEN" merge left.shard right.shard > tree.txt
if ! diff <(grep -v '^#' merged.txt) <(grep -v '^#' tree.txt); then
  echo "tree merge differs from the single-level merge" >&2
  exit 1
fi

# A deliberately gapped merge must be refused.
if "$TRIGEN" merge s0.shard s2.shard s3.shard > /dev/null 2> err.txt; then
  echo "gapped merge unexpectedly succeeded" >&2
  exit 1
fi
grep -q 'coverage gap' err.txt \
  || { echo "gapped merge failed without naming the gap" >&2; exit 1; }

# A malformed --range is a usage error (exit 2), never a silently
# truncated range: `3:10x` must not scan [3, 10).
for bad in 3:10x x:10 -1:5 10:3; do
  rc=0
  "$TRIGEN" scan d.tg --range "$bad" --top 12 > /dev/null 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "--range $bad: expected exit 2, got $rc" >&2
    exit 1
  fi
  grep -q 'FIRST:LAST' err.txt \
    || { echo "--range $bad failed without naming FIRST:LAST" >&2; exit 1; }
done

# A negative count flag is a usage error (exit 2) naming the flag, never a
# two's-complement wrap into a huge count (`--threads -1` must not ask for
# 2^32-1 workers).
expect_usage_error() {
  local flag=$1; shift
  local rc=0
  "$TRIGEN" "$@" > /dev/null 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$*: expected exit 2, got $rc" >&2
    exit 1
  fi
  grep -q -- "--$flag expects a non-negative integer" err.txt \
    || { echo "$*: failed without naming --$flag" >&2; exit 1; }
}
for flag in threads top; do
  expect_usage_error "$flag" scan d.tg --"$flag" -1
  expect_usage_error "$flag" baseline d.tg --"$flag" -1
done
for flag in permutations batch seed threads; do
  expect_usage_error "$flag" significance d.tg --"$flag" -1
done
for flag in snps samples seed; do
  expect_usage_error "$flag" generate bad.tg --"$flag" -1
done

# --- real-signal leg: a SIGINT (not --stop-after) must take the same
# "drain to the next checkpoint boundary, exit 3, resumable" path.  The
# interrupted run pins the slow naive single-thread rung so the signal
# reliably lands mid-scan; the resume may use the fast default rung — the
# checkpoint is version-agnostic and the merged output must still be
# byte-identical to a fresh full scan.
"$TRIGEN" generate slow.tg --snps 160 --samples 512 --seed 11 \
  --plant 9,75,140 --model xor3 --effect 0.8
"$TRIGEN" scan slow.tg --top 12 > slow_full.txt

"$TRIGEN" scan slow.tg --version 1 --threads 1 --top 12 \
  --checkpoint int.ckpt --checkpoint-every 20000 > int.txt 2>&1 &
scan_pid=$!
# Interrupt as soon as the first checkpoint proves the scan is mid-flight.
for _ in $(seq 600); do
  [ -e int.ckpt ] && break
  sleep 0.05
done
[ -e int.ckpt ] || { echo "no checkpoint appeared before the interrupt" >&2; exit 1; }
kill -INT "$scan_pid"
rc=0
wait "$scan_pid" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "expected SIGINT to exit with code 3, got $rc" >&2
  exit 1
fi
grep -q '^# interrupted:' int.txt \
  || { echo "interrupted scan did not report its checkpoint" >&2; exit 1; }

"$TRIGEN" scan slow.tg --top 12 --checkpoint int.ckpt > int_resumed.txt
grep -q '^# resumed from checkpoint' int_resumed.txt \
  || { echo "post-SIGINT resume did not use the checkpoint" >&2; exit 1; }
if ! diff <(grep -v '^#' slow_full.txt) <(grep -v '^#' int_resumed.txt); then
  echo "post-SIGINT resume differs from the uninterrupted scan" >&2
  exit 1
fi

echo "shard smoke: kill/resume/merge reproduces the full scan exactly"
