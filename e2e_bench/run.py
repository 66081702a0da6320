#!/usr/bin/env python3
"""End-to-end benchmark of emx: one measured run of one workload.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --self-test

Run from the root of a checkout. The first call builds the harness
(e2e_bench/CMakeLists.txt: the emx libraries from src/ plus the harness) into
$CARGO_TARGET_DIR (default .bench_build). Each run then generates the
workload's inputs from --seed in a separate process, measures, checks the
outputs, prints every metric with its unit, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list, and a Chrome trace-event file (opens in Perfetto) is written under the
build directory. Exit status is non-zero when the build, a program call or an
output check fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "e2e_bench"


def build(bdir):
    """Configures once, then builds incrementally; returns the harness path."""
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "emx_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir / "emx_e2e"


def run_harness(cmd):
    """Runs one harness process to completion (killed and reaped on timeout)."""
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)


def result_json(raw, spec, trace):
    """Attaches BENCHMARK.json units; every end-to-end metric must be present.

    Per-layer metrics of a layer the workload never calls read 0."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = raw["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        raise ValueError("harness reported metrics missing from BENCHMARK.json: %s" % unknown)
    metrics = {}
    for name, unit in units.items():
        if name not in got and not trace:
            raise ValueError("end-to-end metric %s was not measured" % name)
        value = float(got.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output check trips on a deliberately wrong output")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in names:
        ap.error("--workload must be one of %s" % names)

    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    harness = build(bdir)

    if args.self_test:
        work = bdir / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        rc = subprocess.run([str(harness), "selftest", "--dir=%s" % work],
                            timeout=RUN_TIMEOUT_S * 4).returncode
        shutil.rmtree(work, ignore_errors=True)
        return rc

    work = bdir / "work" / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload=%s" % args.workload, "--seed=%d" % args.seed, "--dir=%s" % work]
    try:
        subprocess.run([str(harness), "gen"] + common, check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        cmd = [str(harness), "run"] + common + ["--seconds=%g" % args.seconds,
                                                "--trace=%d" % args.trace]
        if args.trace:
            traces = bdir / "traces"
            traces.mkdir(exist_ok=True)
            cmd.append("--trace-out=%s" % (traces / ("%s-seed%d.json" % (args.workload, args.seed))))
        proc = run_harness(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            raw = json.loads(line[len("E2E_RESULT "):])
        else:
            print(line)
    if raw is None:
        log("e2e_bench: the harness exited %d without a result" % proc.returncode)
        return 1
    result = result_json(raw, spec, args.trace)
    for name, m in result["metrics"].items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("e2e_bench: %s" % e)
        sys.exit(1)
