#!/usr/bin/env python3
"""Reads ledger run sets and judges them (Python 3 standard library only).

A run set is the JSON-lines file `run.py --record FILE` appends to, one line
per run: {"workload", "seed", "seconds", "trace", "context", "result"}.

  compare.py spread RUNS.jsonl
      Per (workload, end-to-end metric): median and the spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json, then
      the printed-only numbers (absolute times) the same way. Exits 1 when
      a spread other than setup_s's exceeds its bound.

  compare.py runs PARENT.jsonl CHANGE.jsonl
      Per (workload, metric): improved, unchanged, regressed or unresolved.
      Runs pair up in recorded order (record them alternating parent and
      change). "improved" needs at least ten pairs, the change winning at
      least nine tenths of them (ties count for neither), and the medians
      to differ by more than the parent's Q3 - Q1. "regressed" means the change's median is worse than
      the parent's by more than the metric's bound. When the parent's own
      spread exceeds the bound the verdict is "unresolved", unless every
      change run beats every parent run. Per-layer metrics (trace runs) are
      listed with their median shift; they have no bound.

  compare.py traces PARENT.summary.json CHANGE.summary.json
      Self time per span, per call, of two traced runs and its change.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10  # a gain needs at least ten parent/change pairs


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load_runs(path, trace):
    """{(workload, metric): [values in recorded order]} plus failed counts."""
    values = defaultdict(list)
    failed = defaultdict(int)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"] != trace:
                continue
            result = run["result"]
            failed[run["workload"]] += result["failed"]
            if not result["correct"]:
                failed[run["workload"]] += 1
            for name, m in {**run.get("info", {}),
                            **result["metrics"]}.items():
                values[(run["workload"], name)].append(m["value"])
    return values, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf"), med, q1, q3


def cmd_spread(args):
    benchmark = load_benchmark(args.benchmark)
    values, failed = load_runs(args.runs, 0)
    bad = False
    print(f"{'workload':20} {'metric':16} {'n':>3} {'median':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    gated = {m["name"] for m in benchmark["end_to_end"]}
    for workload in (w["name"] for w in benchmark["workloads"]):
        ungated = sorted(name for w, name in values
                         if w == workload and name not in gated)
        for m in benchmark["end_to_end"] + [{"name": n} for n in ungated]:
            xs = values.get((workload, m["name"]))
            if not xs:
                continue
            s, med, _, _ = spread(xs)
            if "bound" not in m:
                print(f"{workload:20} {m['name']:16} {len(xs):3} {med:12.6g} "
                      f"{s:7.2%} {'':>6}  printed only, not gated")
                continue
            if s <= m["bound"] / 3:
                verdict = "ok"
            elif s <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "ABOVE BOUND"
                bad = bad or m["name"] != "setup_s"
            print(f"{workload:20} {m['name']:16} {len(xs):3} {med:12.6g} "
                  f"{s:7.2%} {m['bound']:6.0%}  {verdict}")
        if failed[workload]:
            print(f"{workload}: {failed[workload]} failed operations")
    return 1 if bad else 0


def verdict(parent, change, bound, higher_better):
    """One (metric, workload) verdict under choosing-metrics section 8."""
    p_spread, p_med, p_q1, p_q3 = spread(parent)
    _, c_med, _, _ = spread(change)
    sign = 1 if higher_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gap = sign * (c_med - p_med)
    worse = -gap / abs(p_med) if p_med else 0.0
    if bound is not None and p_spread > bound and not all_better:
        return "unresolved", wins, len(pairs), worse
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gap > (p_q3 - p_q1)):
        return "improved", wins, len(pairs), worse
    if bound is not None and worse > bound:
        return "regressed", wins, len(pairs), worse
    return "unchanged", wins, len(pairs), worse


def cmd_runs(args):
    benchmark = load_benchmark(args.benchmark)
    workloads = [w["name"] for w in benchmark["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        parent, p_failed = load_runs(args.parent, trace)
        change, c_failed = load_runs(args.change, trace)
        rows = [(w, m) for w in workloads for m in benchmark[key]
                if parent.get((w, m["name"])) and change.get((w, m["name"]))]
        if not rows:
            continue
        print(f"\n{key}:")
        print(f"{'workload':20} {'metric':38} {'parent':>12} {'change':>12} "
              f"{'worse':>8} {'wins':>6}  verdict")
        for w, m in rows:
            p, c = parent[(w, m["name"])], change[(w, m["name"])]
            v, wins, n, worse = verdict(p, c, m.get("bound"),
                                        m["better"] == "higher")
            if v == "improved" and c_failed[w] > p_failed[w]:
                v = "unresolved (more failed operations than the parent)"
            print(f"{w:20} {m['name']:38} {statistics.median(p):12.6g} "
                  f"{statistics.median(c):12.6g} {worse:8.2%} "
                  f"{wins:>2}/{n:<3}  {v}")
        for w in workloads:
            if p_failed[w] or c_failed[w]:
                print(f"{w}: failed operations parent {p_failed[w]}, "
                      f"change {c_failed[w]}")
    return 0


def cmd_traces(args):
    def per_call(path):
        with open(path) as f:
            layers = json.load(f)["layers"]
        return {l["name"]: l["self_us"] / l["count"] for l in layers
                if l["count"]}

    parent, change = per_call(args.parent), per_call(args.change)
    print(f"{'span':34} {'parent self us':>15} {'change self us':>15} "
          f"{'change':>8}")
    for name in list(parent) + [n for n in change if n not in parent]:
        p, c = parent.get(name), change.get(name)
        delta = f"{(c - p) / p:8.1%}" if p and c is not None else f"{'':>8}"
        print(f"{name:34} {p if p is not None else float('nan'):15.3f} "
              f"{c if c is not None else float('nan'):15.3f} {delta}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("runs", type=Path)
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("runs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(fn=cmd_runs)
    p = sub.add_parser("traces")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(fn=cmd_traces)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
