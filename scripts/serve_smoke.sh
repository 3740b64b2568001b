#!/usr/bin/env bash
# End-to-end smoke of the resident scan server (`trigen serve`) through the
# CLI binary, pipe mode:
#
#   1. one session runs an order-3 scan, a batched order-2 significance
#      test, an order-2 scan, a ranged order-3 scan (V5) and an order-3
#      scan under V3 CONCURRENTLY, each cut into chunks on its own block
#      grid; each job's `data` payload must be byte-identical to the
#      standalone scan/significance run;
#   2. a malformed-request battery gets one `error` line each and must not
#      disturb the jobs running alongside it;
#   3. `shutdown` mid-job exits 3 and leaves a resumable checkpoint that
#      `trigen scan --checkpoint` completes to the exact full-scan result;
#   4. a real SIGINT mid-job takes the same checkpoint path.
#
# usage: scripts/serve_smoke.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: serve_smoke.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 48 --samples 256 --seed 21 \
  --plant 5,19,37 --model xor3 --effect 0.8

# --- 1+2: concurrent jobs + malformed battery in one session ------------
# One printf writes the whole session at once, so the server reads the
# duplicate `scan j1` just after j1's own line, well before j1 can finish
# (with one echo per line, a loaded host could finish j1 in between).  The battery: a bogus verb, a duplicate
# live id (j1), a bad order (j4), a bad top (j5), a negative count (j6)
# and an unknown job (ghost).
printf '%s\n' \
  'ping' \
  'scan j1 order=3 top=8' \
  'significance j2 order=2 permutations=9 seed=5' \
  'bogus request' \
  'scan j1 order=2' \
  'scan j4 order=9' \
  'scan j5 top=0' \
  'significance j6 permutations=-2' \
  'cancel ghost' \
  'scan j3 order=2 top=8' \
  'scan j7 order=3 top=8 range=1000:9000' \
  'scan j8 order=3 top=8 version=3' \
  | "$TRIGEN" serve d.tg --threads 4 > session.out || rc=$?
rc=${rc:-0}
if [ "$rc" -ne 0 ]; then
  echo "clean serve session expected exit 0, got $rc" >&2
  exit 1
fi

errors=$(grep -c '^error ' session.out)
if [ "$errors" -ne 6 ]; then
  echo "expected 6 error lines for the malformed battery, got $errors" >&2
  grep '^error ' session.out >&2
  exit 1
fi
for id in j1 j2 j3 j7 j8; do
  grep -q "^done $id " session.out \
    || { echo "job $id did not complete" >&2; exit 1; }
done

sed -n 's/^data j1 //p' session.out > j1.csv
sed -n 's/^data j2 //p' session.out > j2.txt
sed -n 's/^data j3 //p' session.out > j3.csv
sed -n 's/^data j7 //p' session.out > j7.csv
sed -n 's/^data j8 //p' session.out > j8.csv

"$TRIGEN" scan d.tg --top 8 | grep -v '^#' > ref1.csv
"$TRIGEN" significance d.tg --order 2 --permutations 9 --seed 5 > ref2.txt
"$TRIGEN" scan2 d.tg --top 8 | grep -v '^#' > ref3.csv
"$TRIGEN" scan d.tg --top 8 --range 1000:9000 | grep -v '^#' > ref7.csv
"$TRIGEN" scan d.tg --top 8 --version 3 | grep -v '^#' > ref8.csv

diff j1.csv ref1.csv \
  || { echo "serve order-3 scan differs from standalone scan" >&2; exit 1; }
diff j2.txt ref2.txt \
  || { echo "serve significance differs from standalone run" >&2; exit 1; }
diff j3.csv ref3.csv \
  || { echo "serve order-2 scan differs from standalone scan2" >&2; exit 1; }
diff j7.csv ref7.csv \
  || { echo "serve ranged V5 order-3 scan differs from scan --range" >&2; exit 1; }
diff j8.csv ref8.csv \
  || { echo "serve V3 order-3 scan differs from scan --version 3" >&2; exit 1; }

# --- 3: shutdown mid-job checkpoints and resumes exactly ----------------
"$TRIGEN" generate slow.tg --snps 200 --samples 512 --seed 31 \
  --plant 9,75,140 --model xor3 --effect 0.8
"$TRIGEN" scan slow.tg > slow_full.txt

# The job pins the slow naive rung on a single worker (several seconds of
# work); shutdown arrives while it is mid-scan.
rc=0
{
  echo 'scan s1 order=3 version=1'
  sleep 1
  echo 'shutdown'
} | "$TRIGEN" serve slow.tg --threads 1 > shut.out || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "shutdown mid-job expected exit 3, got $rc" >&2
  cat shut.out >&2
  exit 1
fi
grep -q '^event s1 checkpoint ' shut.out \
  || { echo "shutdown did not checkpoint the incomplete job" >&2; exit 1; }
[ -e serve-s1.ckpt ] \
  || { echo "checkpoint file serve-s1.ckpt missing" >&2; exit 1; }

"$TRIGEN" scan slow.tg --checkpoint serve-s1.ckpt > resumed.txt
grep -q '^# resumed from checkpoint' resumed.txt \
  || { echo "resume did not use the serve checkpoint" >&2; exit 1; }
diff <(grep -v '^#' slow_full.txt) <(grep -v '^#' resumed.txt) \
  || { echo "resumed serve checkpoint differs from the full scan" >&2; exit 1; }

# --- 4: a real SIGINT takes the same checkpoint path --------------------
rm -f serve-s2.ckpt
mkfifo ctl
"$TRIGEN" serve slow.tg --threads 2 < ctl > int.out 2>&1 &
serve_pid=$!
exec 9> ctl   # hold the fifo open so EOF never arrives
echo 'scan s2 order=3 version=1' >&9
# Interrupt once the job is demonstrably running.
for _ in $(seq 600); do
  grep -q '^event s2 progress ' int.out 2>/dev/null && break
  sleep 0.05
done
grep -q '^event s2 progress ' int.out \
  || { echo "serve job never reported progress" >&2; exit 1; }
kill -INT "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
exec 9>&-
if [ "$rc" -ne 3 ]; then
  echo "SIGINT on serve expected exit 3, got $rc" >&2
  cat int.out >&2
  exit 1
fi
[ -e serve-s2.ckpt ] \
  || { echo "SIGINT did not leave serve-s2.ckpt" >&2; exit 1; }
"$TRIGEN" scan slow.tg --checkpoint serve-s2.ckpt > int_resumed.txt
diff <(grep -v '^#' slow_full.txt) <(grep -v '^#' int_resumed.txt) \
  || { echo "post-SIGINT serve resume differs from the full scan" >&2; exit 1; }

echo "serve smoke: concurrent jobs bit-identical, shutdown and SIGINT resumable"
