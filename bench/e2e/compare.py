#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric, workload by workload.

    python3 bench/e2e/compare.py A.json B.json

A and B are files of run records, one JSON object per line, as
`run.py --out FILE` appends them (bench/e2e/baseline/seed1.json is one). A is
the parent commit, B the change. For each (metric, workload) pair found on
both sides it prints each side's median and quartiles and a verdict, using
the bound and direction BENCHMARK.json gives the metric:

  worse       B's median is worse than A's by more than the bound;
  unresolved  either side's spread (quartile distance / median) exceeds the
              bound, unless every B run is better than every A run;
  better      B's median is better than A's by more than A's quartile
              distance, and B wins at least 9 in 10 runs paired by seed
              (ties count for neither side); unpaired runs must all be better;
  unchanged   otherwise.

A `failed` row per workload compares failed operations: more failures in B is
worse. Per-layer metrics have no bound and are listed with medians only.
Exits 1 if any verdict is worse or unresolved.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load_runs(path):
    """{workload: [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def keyed(records, metric):
    """{(seed, k): value} — the k-th run of each seed, so sides pair up."""
    out, seen = {}, defaultdict(int)
    for r in records:
        value = r["metrics"].get(metric)
        if value is None:
            continue
        out[(r["seed"], seen[r["seed"]])] = value
        seen[r["seed"]] += 1
    return out


def verdict(a, b, better, bound):
    """a, b: {pair key: value}. Returns (verdict, change as a share of A's
    median, signed so that positive means worse)."""
    av, bv = list(a.values()), list(b.values())
    a1, am, a3 = quartiles(av)
    b1, bm, b3 = quartiles(bv)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (bm - am) / am if am else 0.0

    def beats(x, y):  # x better than y
        return sign * (y - x) > 0

    all_better = all(beats(x, y) for x in bv for y in av)
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if spread > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = [k for k in a if k in b]
    if pairs:
        wins = sum(1 for k in pairs if beats(b[k], a[k]))
        won = wins >= 0.9 * len(pairs)
    else:
        won = all_better
    if won and sign * (am - bm) > (a3 - a1):
        return "better", worse_by
    return "unchanged", worse_by


def fmt(values):
    q1, m, q3 = quartiles(values)
    return f"{m:.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    side_a, side_b = load_runs(argv[1]), load_runs(argv[2])
    bad = 0
    print(f"{'workload':11} {'metric':34} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[workload], side_b[workload]
        fa = sum(r["failed"] for r in ra)
        fb = sum(r["failed"] for r in rb)
        fail_verdict = "worse" if fb > fa else "unchanged"
        bad += fail_verdict == "worse"
        print(f"{workload:11} {'failed':34} {fa:>30} {fb:>30} {'':>8}  "
              f"{fail_verdict}")
        for m in spec["end_to_end"] + spec["per_layer"]:
            a, b = keyed(ra, m["name"]), keyed(rb, m["name"])
            if not a or not b:
                continue
            if "bound" in m:
                v, change = verdict(a, b, m["better"], m["bound"])
                bad += v in ("worse", "unresolved")
                tail = f"{change:+8.2%}  {v}"
            else:
                tail = f"{'':>8}  -"
            print(f"{workload:11} {m['name']:34} {fmt(list(a.values())):>30} "
                  f"{fmt(list(b.values())):>30} {tail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
