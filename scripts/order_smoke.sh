#!/usr/bin/env bash
# End-to-end smoke of the order-generic sharded scan workflow through the
# trigen binary, at every CLI-reachable rung of the order ladder: for each
# interaction order k in {2, 3, 4}: generate -> 4x `scan --shard` (one
# worker killed partway and resumed from its checkpoint) -> `merge` ->
# diff against the unsharded scan.  The CSV sections (everything but the
# '#' comment lines, which carry timings) must be byte-identical.  Also
# checks that `merge` refuses to mix interaction orders, that at each
# order a scan without --version runs the default rung `scan --help` names
# and prints the same CSV as --version 3 and --version 4, and that
# `--split block` cuts at orders 2 and 4 fall on the scan's own grid.
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

# At every order, a scan without --version runs the default rung `scan
# --help` names (the library's ScanOptionsBase default): the header names
# the same rung as an explicit --version of that number.  The default
# rung, V3 and V4 must all print V4's CSV: at k = 2 and 3 the default and
# V3/V4 reach different engines (V5 at k = 2 runs the direct engine, V5
# at k = 3 the ladder), so this checks every CLI dispatch path.
default=$("$TRIGEN" scan --help | sed -n 's/.*; default \([1-5]\)).*/\1/p')
[ -n "$default" ] \
  || { echo "scan --help does not name the default rung" >&2; exit 1; }
rung() { head -1 "$1" | cut -d, -f4; }
for k in 2 3 4; do
  "$TRIGEN" scan d.tg --order "$k" --top 12 --threads 2 > "implicit$k.txt"
  for v in "$default" 3 4; do
    "$TRIGEN" scan d.tg --order "$k" --top 12 --threads 2 --version "$v" \
      > "v${v}_$k.txt"
  done
  if [ "$(rung "implicit$k.txt")" != "$(rung "v${default}_$k.txt")" ]; then
    echo "order $k: default scan ran$(rung "implicit$k.txt"), not rung $default" >&2
    exit 1
  fi
  for f in "implicit$k.txt" "v${default}_$k.txt" "v3_$k.txt"; do
    diff <(grep -v '^#' "$f") <(grep -v '^#' "v4_$k.txt") \
      || { echo "order $k: $f and V4 print different CSV" >&2; exit 1; }
  done
  echo "order $k: default rung $default:$(rung "implicit$k.txt"), V3 and V4 print the same CSV"
done

# `--split block` cuts a plan at the block layers of the grid the scan
# tiles with.  At orders 2 and 4 that grid differs from order 3's, so
# every interior boundary of a 3-shard plan must be C(b * B_S, k) for the
# B_S that the shard's own run reports in its header.
choose() {
  awk -v n="$1" -v k="$2" 'BEGIN { c = k > n ? 0 : 1
    for (i = 1; i <= k && c > 0; i++) c = c * (n - k + i) / i
    printf "%d\n", c }'
}
for k in 2 4; do
  for i in 0 1; do
    "$TRIGEN" scan d.tg --order "$k" --top 3 --threads 2 --shards 3 \
      --shard "$i" --split block > "block${k}_$i.txt"
    bs=$(head -1 "block${k}_$i.txt" | sed -n 's/.*, B_S \([0-9]*\),.*/\1/p')
    end=$(sed -n 's/^# partition: ranks \[[0-9]*, \([0-9]*\)).*/\1/p' \
      "block${k}_$i.txt")
    [ -n "$bs" ] && [ -n "$end" ] \
      || { echo "order $k: shard $i header lacks B_S or its partition" >&2
           exit 1; }
    on_cut=no
    for ((z = 0; z < 48; z += bs)); do
      [ "$(choose "$z" "$k")" = "$end" ] && on_cut=yes
    done
    [ "$on_cut" = yes ] \
      || { echo "order $k: --split block boundary $end is not a B_S = $bs layer cut" >&2
           exit 1; }
  done
  echo "order $k: --split block cuts on the B_S $bs grid the scan runs"
done

echo "order smoke: orders 2, 3 and 4 shard, resume and merge exactly"
