#!/usr/bin/env python3
"""Layer ledger entry point: builds bench_ledger from source, runs workloads.

  python3 bench/ledger/run.py --workload fig8-batch --seed 1 --trace 0
  python3 bench/ledger/run.py --seed 1            # every workload, in turn
  python3 bench/ledger/run.py --smoke             # tiny sizes, both modes

Run from anywhere inside a checkout. The first run configures and builds
into .bench_build/ledger at the checkout root. Each workload runs in its own
child process, so peak RSS belongs to one workload. With --trace 0 the
result reports every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric, and the Chrome trace and layer summary land in
.bench_build/ledger/trace. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A run whose metric names or units differ from BENCHMARK.json fails, so the
file and the binary cannot drift apart.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_ROOT = ROOT / ".bench_build" / "ledger"
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures on first use, then brings bench_ledger up to date."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", str(build_dir), "--target", "bench_ledger",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(benchmark, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def run_workload(binary, benchmark, workload, seed, seconds, trace,
                 smoke=False):
    """Runs one workload in a child process; returns (lines, result) or
    raises RuntimeError."""
    work = BUILD_ROOT / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace:
        cmd.append(f"--trace={BUILD_ROOT / 'trace'}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: bench_ledger printed nothing")
    result = json.loads(lines[-1])
    want = expected_metrics(benchmark, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}, "
                           f"unit {wrong_unit}")
    return lines, result


def smoke(binary, benchmark):
    start = time.monotonic()
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            _, result = run_workload(binary, benchmark, workload, 1, 0.2,
                                     trace, smoke=True)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload}: wrong or failed answers "
                                   f"({result['failed']} failed)")
            log(f"smoke ok: {workload} trace={trace} "
                f"({result['attempted']} operations)")
    log(f"smoke passed in {time.monotonic() - start:.1f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", type=Path,
                        help="use an existing build here instead of building")
    parser.add_argument("--record", type=Path,
                        help="append each run as a JSON line (compare.py)")
    args = parser.parse_args()

    benchmark = load_benchmark()
    build_dir = args.build_dir or BUILD_ROOT
    if args.build_dir is None and not build(build_dir):
        log("run.py: build failed")
        return 1
    binary = build_dir / "bench_ledger"
    names = [w["name"] for w in benchmark["workloads"]]
    try:
        if args.smoke:
            smoke(binary, benchmark)
            return 0
        if args.workload is not None and args.workload not in names:
            log(f"run.py: unknown workload {args.workload}; one of {names}")
            return 2
        seconds = args.seconds or benchmark["run_seconds"]
        results = []
        for workload in [args.workload] if args.workload else names:
            lines, result = run_workload(binary, benchmark, workload,
                                         args.seed, seconds, args.trace)
            print("\n".join(lines[:-1]), flush=True)
            results.append(result)
            if args.record is not None:
                parsed = [json.loads(line) for line in lines[:-1]]
                info = {p["metric"]: {"value": p["value"], "unit": p["unit"]}
                        for p in parsed if p.get("gated") is False}
                with open(args.record, "a") as f:
                    f.write(json.dumps({
                        "workload": workload, "seed": args.seed,
                        "seconds": seconds, "trace": args.trace,
                        "context": parsed[0].get("context", {}),
                        "result": result, "info": info}) + "\n")
        for result in results:
            print(json.dumps(result), flush=True)
    except RuntimeError as e:
        log(f"run.py: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
