#!/usr/bin/env bash
# Chaos smoke of the fleet orchestration layer (`trigen coordinate` +
# `trigen work`) through the CLI binary, Unix-socket transport:
#
#   1. a coordinator plans 12 shards; four single-thread workers join and
#      scan on the deliberately slow naive kernel (--version 1);
#   2. two workers are SIGKILLed mid-shard — their leases expire, their
#      durable checkpoint prefixes are harvested, and only the remainders
#      are re-leased;
#   3. a third worker is SIGSTOPped into a straggler; its lease expires
#      and is reassigned, and on SIGCONT its renewal is fenced with
#      `lease-lost` (the straggler stops cleanly and re-leases);
#   4. the coordinator itself is SIGKILLed and relaunched over the same
#      spool; it resumes from the fsync-atomic lease table without
#      double-counting and the surviving workers reconnect;
#   5. the final CSV must be byte-identical to a single-process scan.
#
# usage: scripts/fleet_chaos_smoke.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: fleet_chaos_smoke.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")
workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do
    kill -CONT "$p" 2>/dev/null || true
    kill -KILL "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 200 --samples 1536 --seed 21 \
  --plant 5,19,37 --model xor3 --effect 0.8
"$TRIGEN" scan d.tg --top 16 | grep -v '^#' > ref.csv

coordinate() { # $1 = log file
  # lease-ms is sized for a loaded CI box: a checkpoint chunk is ~10ms of
  # scanning on an idle machine, so even a 100x-oversubscribed worker
  # renews well inside the lease.  max-failures stays far above anything
  # spurious expiries could reach — quarantine must never fire here, or
  # workers exit 4 and the fleet stalls instead of converging.
  "$TRIGEN" coordinate d.tg --out fleet.csv --socket fleet.sock \
    --spool spool --shards 12 --top 16 --lease-ms 2000 \
    --checkpoint-every 1000 --max-failures 50 \
    --backoff-ms 50 --backoff-cap-ms 200 \
    2>> "$1" &
}

work() { # $1 = worker name
  # reconnect-ms must cover the coordinator kill->relaunch gap below
  # (well under a second).
  "$TRIGEN" work d.tg --socket fleet.sock --id "$1" --threads 1 \
    --version 1 --reconnect-ms 5000 2>> "$1.log" &
}

wait_for() { # $1 = min count, $2 = grep pattern, $3 = file
  for _ in $(seq 600); do
    [ "$(grep -c "$2" "$3" 2>/dev/null || true)" -ge "$1" ] && return 0
    sleep 0.05
  done
  echo "timed out waiting for $1 x '$2' in $3" >&2
  cat "$3" >&2 || true
  return 1
}

# --- 1: coordinator + four workers --------------------------------------
coordinate coord1.log
coord_pid=$!; pids+=("$coord_pid")
work wa; wa_pid=$!; pids+=("$wa_pid")
work wb; wb_pid=$!; pids+=("$wb_pid")
work wc; wc_pid=$!; pids+=("$wc_pid")
work wd; wd_pid=$!; pids+=("$wd_pid")
wait_for 4 'lease granted' coord1.log

# --- 2+3: kill two workers mid-shard, stall a third ---------------------
sleep 0.3   # well past the first checkpoints, well short of a shard
# A worker may straddle two shards at kill time; the chaos only needs the
# signal delivered, not a particular victim state.
kill -KILL "$wa_pid" "$wb_pid" 2>/dev/null || true
kill -STOP "$wc_pid" 2>/dev/null || true
wait_for 3 'lease expired' coord1.log
grep -q 'harvested checkpoint prefix' coord1.log \
  || { echo "no checkpoint prefix was harvested from the dead workers" >&2
       cat coord1.log >&2; exit 1; }
kill -CONT "$wc_pid" 2>/dev/null || true
wait_for 1 'lease lost' wc.log

# --- 4: kill the coordinator and resume from the durable lease table ----
kill -KILL "$coord_pid" 2>/dev/null || true
wait "$coord_pid" 2>/dev/null || true
coordinate coord2.log
coord_pid=$!; pids+=("$coord_pid")
wait_for 1 'resume:' coord2.log

# --- 5: the fleet drains and the answer is exact ------------------------
rc=0; wait "$wc_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "straggler worker wc exited $rc" >&2
                     cat wc.log >&2; exit 1; }
rc=0; wait "$wd_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "surviving worker wd exited $rc" >&2
                     cat wd.log >&2; exit 1; }
rc=0; wait "$coord_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "resumed coordinator exited $rc" >&2
                     cat coord2.log >&2; exit 1; }

[ -s fleet.csv ] || { echo "coordinator wrote no fleet.csv" >&2; exit 1; }
diff fleet.csv ref.csv \
  || { echo "fleet CSV differs from the single-process scan" >&2; exit 1; }

echo "fleet chaos smoke: 2 kills, 1 straggler, 1 coordinator restart — final CSV bit-identical"
