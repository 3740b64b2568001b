#!/usr/bin/env bash
# End-to-end smoke of the order-generic sharded scan workflow through the
# trigen binary, at every CLI-reachable rung of the order ladder: for each
# interaction order k in {2, 3, 4}: generate -> 4x `scan --shard` (one
# worker killed partway and resumed from its checkpoint) -> `merge` ->
# diff against the unsharded scan.  The CSV sections (everything but the
# '#' comment lines, which carry timings) must be byte-identical.  Also
# checks that `merge` refuses to mix interaction orders and that a scan
# without --version runs the default rung `scan --help` names.
#
# usage: scripts/order_smoke.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: order_smoke.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")   # survive the cd below when given a relative path
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# One dataset for every order.  C(48,2) = 1128, C(48,3) = 17296,
# C(48,4) = 194580; each of 4 shards covers a quarter of that space.
"$TRIGEN" generate d.tg --snps 48 --samples 256 --seed 11 \
  --plant 9,33,47 --model xor3 --effect 0.8

# smoke_order ORDER SCAN_ARGS STOP_AFTER CKPT_EVERY
#   Runs the kill/resume/merge battery at one interaction order.  The
#   shard files are left behind (s<ORDER>_*.shard) for the mixed-order
#   check below.
smoke_order() {
  local k=$1 scan=$2 stop=$3 every=$4

  # Reference: one unsharded scan.
  # shellcheck disable=SC2086  # $scan is intentionally word-split
  "$TRIGEN" $scan d.tg --top 12 --threads 2 > "full$k.txt"

  # 4-shard plan; worker 2 is killed partway through its range...
  for i in 0 1 3; do
    "$TRIGEN" $scan d.tg --shards 4 --shard "$i" --top 12 --threads 2 \
      --out "s${k}_$i.shard" > /dev/null
  done
  local rc=0
  "$TRIGEN" $scan d.tg --shards 4 --shard 2 --top 12 --threads 2 \
    --out "s${k}_2.shard" --checkpoint "s${k}_2.ckpt" \
    --checkpoint-every "$every" --stop-after "$stop" > /dev/null || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "order $k: expected the killed shard to exit with code 3, got $rc" >&2
    exit 1
  fi
  if [ -e "s${k}_2.shard" ]; then
    echo "order $k: killed shard must not leave a result file" >&2
    exit 1
  fi

  # ...and a fresh invocation resumes from the checkpoint instead of
  # rescanning.
  "$TRIGEN" $scan d.tg --shards 4 --shard 2 --top 12 --threads 2 \
    --out "s${k}_2.shard" --checkpoint "s${k}_2.ckpt" \
    --checkpoint-every "$every" \
    | grep -q '^# resumed from checkpoint' \
    || { echo "order $k: resume did not use the checkpoint" >&2; exit 1; }

  "$TRIGEN" merge "s${k}_0.shard" "s${k}_1.shard" "s${k}_2.shard" \
    "s${k}_3.shard" > "merged$k.txt"
  if ! diff <(grep -v '^#' "full$k.txt") <(grep -v '^#' "merged$k.txt"); then
    echo "order $k: merged shard results differ from the unsharded scan" >&2
    exit 1
  fi

  # Two-level tree merge: two contiguous intermediate merges, then the
  # final full-coverage merge — must equal the single-level merge.
  "$TRIGEN" merge --partial "s${k}_0.shard" "s${k}_1.shard" \
    --out "left$k.shard" > /dev/null
  "$TRIGEN" merge --partial "s${k}_2.shard" "s${k}_3.shard" \
    --out "right$k.shard" > /dev/null
  "$TRIGEN" merge "left$k.shard" "right$k.shard" > "tree$k.txt"
  if ! diff <(grep -v '^#' "merged$k.txt") <(grep -v '^#' "tree$k.txt"); then
    echo "order $k: tree merge differs from the single-level merge" >&2
    exit 1
  fi

  echo "order $k: kill/resume/merge reproduces the full scan exactly"
}

smoke_order 2 "scan2"          150   75
smoke_order 3 "scan"           2000  1000
smoke_order 4 "scan --order 4" 20000 10000

# Mixing interaction orders must be refused with a precise error, for
# every ordered pair of orders.
for a in 2 3 4; do
  for b in 2 3 4; do
    [ "$a" = "$b" ] && continue
    if "$TRIGEN" merge "s${a}_0.shard" "s${b}_1.shard" \
        > /dev/null 2> err.txt; then
      echo "order $a+$b: mixed-order merge unexpectedly succeeded" >&2
      exit 1
    fi
    grep -q 'order mismatch' err.txt \
      || { echo "order $a+$b: mixed-order merge failed without naming the order" >&2
           exit 1; }
  done
done

# A scan without --version runs the default rung `scan --help` names (the
# library's ScanOptionsBase default): the header names the same rung as
# an explicit --version of that number, and the CSV equals V4's.
default=$("$TRIGEN" scan --help | sed -n 's/.*; default \([1-5]\)).*/\1/p')
[ -n "$default" ] \
  || { echo "scan --help does not name the default rung" >&2; exit 1; }
"$TRIGEN" scan d.tg --top 12 --threads 2 > implicit.txt
"$TRIGEN" scan d.tg --top 12 --threads 2 --version "$default" > explicit.txt
"$TRIGEN" scan d.tg --top 12 --threads 2 --version 4 > v4.txt
rung() { head -1 "$1" | cut -d, -f4; }
if [ "$(rung implicit.txt)" != "$(rung explicit.txt)" ]; then
  echo "default scan ran$(rung implicit.txt), not rung $default" >&2
  exit 1
fi
diff <(grep -v '^#' implicit.txt) <(grep -v '^#' v4.txt) \
  || { echo "default rung and V4 print different CSV" >&2; exit 1; }
echo "default rung $default:$(rung implicit.txt), CSV identical to V4"

echo "order smoke: orders 2, 3 and 4 shard, resume and merge exactly"
