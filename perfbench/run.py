#!/usr/bin/env python3
"""The trigen benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload triplets --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a trigen checkout.  The script builds the library and
the compiled half of the benchmark (perfbench/src) into .bench_build/,
generates the workload's inputs from --seed, runs the closed loop for
--seconds, checks every output, and prints one metric per line followed by
a final JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-module ones.  --save FILE appends the full record, stamped with the host
fingerprint, ISA and nproc, for perfbench/compare.py.  --self-check runs
every workload at tiny sizes and asserts that each metric of BENCHMARK.json
is emitted with its unit and that the exact counts repeat across two runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "trigen_perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def load_spec():
    if not SPEC_FILE.is_file():
        fail("no BENCHMARK.json at " + str(ROOT), 2)
    return json.loads(SPEC_FILE.read_text())


def build():
    """Configures once and builds incrementally; the library sources must be
    there, so a directory without them fails here."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no trigen sources next to perfbench/ (not a checkout)", 2)
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "trigen_perfbench"],
                   check=True, stdout=subprocess.DEVNULL, stderr=sys.stderr)


def run_binary(args, timeout):
    out = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=timeout,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def measure(workload, seed, seconds, trace, tiny=False):
    """Generates the inputs, runs one closed loop, returns the raw record."""
    work = WORK / "{}-{}-{}".format(workload, seed, os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    extra = ["--tiny"] if tiny else []
    try:
        start = time.monotonic()
        run_binary(["gen", "--workload", workload, "--seed", str(seed),
                    "--dir", str(work)] + extra, RUN_TIMEOUT_S)
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        return run_binary(["run", "--workload", workload, "--dir", str(work),
                           "--seconds", str(seconds), "--trace", str(trace)]
                          + extra, left)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def expected_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def missing_metrics(spec, trace, raw):
    """Names of BENCHMARK.json metrics the record lacks or reports with
    another unit."""
    got = raw.get("metrics", {})
    return [m["name"] for m in expected_metrics(spec, trace)
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def self_check(spec):
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        first = measure(name, 1, 0.5, 0, tiny=True)
        second = measure(name, 1, 0.5, 0, tiny=True)
        traced = measure(name, 1, 0.5, 1, tiny=True)
        problems = []
        for trace, raw in ((0, first), (0, second), (1, traced)):
            miss = missing_metrics(spec, trace, raw)
            if miss:
                problems.append("trace {} lacks {}".format(trace, miss))
            if raw["failed"]:
                problems.append("{} of {} checks failed".format(
                    raw["failed"], raw["attempted"]))
        if first["exact"] != second["exact"]:
            problems.append("exact counts differ: {} vs {}".format(
                first["exact"], second["exact"]))
        for k, v in first["exact"].items():
            if k in traced["exact"] and traced["exact"][k] != v:
                problems.append("exact count {} differs when traced".format(k))
        log("self-check {}: {}".format(
            name, "ok " + json.dumps(first["exact"]) if not problems
            else "; ".join(problems)))
        ok = ok and not problems
    print("self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append the stamped record to this file")
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")

    build()
    if a.self_check:
        return self_check(spec)

    raw = measure(a.workload, a.seed, a.seconds, a.trace)
    if raw is None:
        fail("the benchmark program printed no result")
    miss = missing_metrics(spec, a.trace, raw)
    if miss:
        fail("metrics missing or with the wrong unit: {}".format(miss))
    info = raw["info"]
    print("# host {} ({}), isa {}, nproc {}".format(
        info["host_fingerprint"], info["cpu"], info["isa"], info["nproc"]))
    print("# workload {} seed {} trace {}: {} checks, {} failed, error_rate {}"
          .format(a.workload, a.seed, a.trace, raw["attempted"], raw["failed"],
                  raw["failed"] / max(1, raw["attempted"])))
    metrics = {}
    for m in expected_metrics(spec, a.trace):
        metrics[m["name"]] = raw["metrics"][m["name"]]
        print("{} = {} {}".format(m["name"], metrics[m["name"]]["value"],
                                  m["unit"]))
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if a.save:
        with open(a.save, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, "seconds": a.seconds,
                                "host": info, "exact": raw["exact"],
                                "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        fail("{} exited with {}".format(e.cmd[0], e.returncode))
    except subprocess.TimeoutExpired as e:
        fail("{} timed out after {} s".format(e.cmd[0], e.timeout))
