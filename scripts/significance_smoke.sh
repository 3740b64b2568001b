#!/usr/bin/env bash
# End-to-end smoke of the batched permutation test through the trigen
# binary: on small fixed-seed datasets, `significance` must report the
# SAME observed best, null range and empirical p-value from the batched
# path (--batch 0, the default), the legacy sequential path (--batch 1)
# and a chunked batch (--batch 5).  The batched engine is bit-identical to
# sequential by construction; this checks the claim end to end through
# the CLI, dataset IO and the report formatting:
#   * 24 SNPs x 300 samples, 16 permutations, orders 2 and 3, default ISA;
#   * 12 SNPs x 1057 samples (a padded last word), 40 permutations (41
#     partitions: three 16-lane label groups), every order 2..6 under every
#     ISA this host executes.
#
# usage: scripts/significance_smoke.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: significance_smoke.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 24 --samples 300 --seed 13 \
  --plant 3,11,19 --model xor3 --effect 0.8
"$TRIGEN" generate padded.tg --snps 12 --samples 1057 --seed 14 \
  --plant 2,7,11 --model xor3 --effect 0.8

# check DATASET PERMUTATIONS ORDER [EXTRA ARGS...]
check() {
  local data=$1 perms=$2 k=$3
  shift 3
  local what="$data order $k${*:+ $*}"
  "$TRIGEN" significance "$data" --order "$k" --permutations "$perms" \
    --seed 21 --threads 2 "$@" > batched.txt
  "$TRIGEN" significance "$data" --order "$k" --permutations "$perms" \
    --seed 21 --threads 2 --batch 1 "$@" > sequential.txt
  "$TRIGEN" significance "$data" --order "$k" --permutations "$perms" \
    --seed 21 --threads 2 --batch 5 "$@" > chunked.txt

  if ! diff batched.txt sequential.txt; then
    echo "$what: batched and sequential significance reports differ" >&2
    exit 1
  fi
  if ! diff batched.txt chunked.txt; then
    echo "$what: chunked-batch significance report differs" >&2
    exit 1
  fi
  grep -q '^empirical p-value: ' batched.txt \
    || { echo "$what: report is missing the p-value line" >&2; exit 1; }
  echo "$what: batched, chunked and sequential permutation tests agree"
}

for k in 2 3; do
  check d.tg 16 "$k"
done

# The ISAs this host executes: an unknown --isa lists the compiled ones
# and marks those the host cannot run.
isas=$("$TRIGEN" scan padded.tg --isa list 2>&1 >/dev/null \
  | sed -n 's/^vector ISAs in this binary: //p' | tr ',' '\n' \
  | grep -v 'not on this host' | tr -d ' ' || true)
[ -n "$isas" ] || { echo "could not list the host's ISAs" >&2; exit 1; }
for isa in $isas; do
  for k in 2 3 4 5 6; do
    check padded.tg 40 "$k" --isa "$isa"
  done
done

echo "significance smoke: every --batch setting reports identical p-values"
