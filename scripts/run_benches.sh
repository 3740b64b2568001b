#!/usr/bin/env bash
# run_benches.sh — populate and regression-gate the repo's CPU performance
# trajectory.
#
# Runs the fig3 harness (V4 + V5 per ISA at k=3..6, with the V5-vs-V4
# speedups) and, when built, the google-benchmark kernel ablation with
# --benchmark_format=json, and folds everything into one JSON file keyed
# by bench name with ns/op and triplets/s (kernel-level entries carry
# words/s and elements/s instead):
#
#   usage: scripts/run_benches.sh [BUILD_DIR] [OUT.json] [--quick] [--update]
#
# Defaults: BUILD_DIR=build, OUT=BENCH_cpu.json (repo root).  --quick
# shrinks the dataset grid for CI; the checked-in BENCH_cpu.json is the CI
# Release job's quick run.
#
# Regression gate: when OUT already exists, fresh throughput is compared
# per entry against it before anything is written.  An entry regressing by
# more than 15% fails the run in non-quick mode (quick mode only warns —
# CI machines are too noisy for a hard gate).  --update skips the gate and
# re-baselines: the fresh results overwrite OUT unconditionally.
set -euo pipefail

BUILD_DIR=build
OUT=BENCH_cpu.json
QUICK=""
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    --update) UPDATE=1 ;;
    *) if [ "$BUILD_DIR" = build ] && [ -d "$arg" ]; then BUILD_DIR="$arg"
       else OUT="$arg"; fi ;;
  esac
done

FIG3="$BUILD_DIR/bench/bench_fig3_cpu"
ABL="$BUILD_DIR/bench/bench_ablation_kernels"
if [ ! -x "$FIG3" ]; then
  echo "error: $FIG3 not built (configure with -DTRIGEN_BUILD_BENCH=ON)" >&2
  exit 1
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== fig3 CPU bench ($( [ -n "$QUICK" ] && echo quick || echo full ) mode)"
"$FIG3" $QUICK --json "$tmpdir/fig3.json"

have_abl=0
if [ -x "$ABL" ]; then
  echo "== kernel ablation bench (google-benchmark)"
  # 0.05s min time keeps the quick CI run short; the counters are rates,
  # unaffected by the shortened measurement window.
  min_time=""
  [ -n "$QUICK" ] && min_time="--benchmark_min_time=0.05"
  if "$ABL" $min_time --benchmark_format=json > "$tmpdir/abl.json"; then
    have_abl=1
  else
    echo "warning: ablation bench failed; continuing with fig3 only" >&2
  fi
fi

if ! command -v python3 > /dev/null; then
  # No python3: ship the fig3 measurements unmerged, no gate.
  cp "$tmpdir/fig3.json" "$OUT"
  echo "wrote $OUT (fig3 only; python3 unavailable for merge and gate)"
  exit 0
fi

# Merge fig3 + ablation into one trajectory file, then gate it against the
# previous baseline (if any) before replacing it.
baseline=""
if [ -f "$OUT" ] && [ "$UPDATE" -eq 0 ]; then
  baseline="$OUT"
fi
strict=1
[ -n "$QUICK" ] && strict=0
python3 - "$tmpdir/fig3.json" "$tmpdir/abl.json" "$have_abl" "$OUT" \
    "$baseline" "$strict" <<'PYEOF'
import json, sys
(fig3_path, abl_path, have_abl, out_path, baseline_path,
 strict) = sys.argv[1:7]
merged = json.load(open(fig3_path))
if have_abl == "1":
    for b in json.load(open(abl_path)).get("benchmarks", []):
        name = "ablation_kernels/" + b["name"]
        entry = {"ns_per_op": round(float(b.get("real_time", 0.0)), 3)}
        for counter in ("words/s", "elements/s"):
            if counter in b:
                entry[counter.replace("/s", "_per_s")] = round(float(b[counter]), 1)
        merged[name] = entry

# Regression gate: any throughput-like counter (higher is better) that
# dropped more than 15% against the baseline is a regression.  Speedup
# entries are ratios of two fresh measurements and gate the V5-vs-V4 win
# itself.  Entries present in only one of the two files never gate — the
# bench set is allowed to grow and shrink.
THRESHOLD = 0.85
RATE_KEYS = ("triplets_per_s", "elements_per_s", "words_per_s", "speedup")
regressions = []
if baseline_path:
    baseline = json.load(open(baseline_path))
    for name, fresh in sorted(merged.items()):
        base = baseline.get(name)
        if base is None:
            continue
        for key in RATE_KEYS:
            b, f = base.get(key), fresh.get(key)
            if b and f and f < b * THRESHOLD:
                regressions.append(f"{name} [{key}]: {b:.4g} -> {f:.4g} "
                                   f"({100 * (1 - f / b):.1f}% slower)")
for r in regressions:
    print(f"PERF REGRESSION: {r}", file=sys.stderr)
if regressions and strict == "1":
    print(f"error: {len(regressions)} entr{'y' if len(regressions) == 1 else 'ies'} "
          f"regressed >15% vs {baseline_path}; rerun with --update to "
          "re-baseline if intentional", file=sys.stderr)
    sys.exit(1)
if regressions:
    print(f"warning: {len(regressions)} regression(s) ignored in quick mode",
          file=sys.stderr)

json.dump(merged, open(out_path, "w"), indent=1, sort_keys=True)
open(out_path, "a").write("\n")
print(f"wrote {out_path} ({len(merged)} entries)")
PYEOF
