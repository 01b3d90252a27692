#!/usr/bin/env python3
"""Per-layer table of one traced run.

Turns the span file that `ds_e2e --trace FILE` writes, plus the counter
deltas and probe timings in its result line, into per-layer metrics:

- self time per span name: a span's duration minus the part of it that its
  child spans cover, summed per name and divided by the traced ops;
- counts per op, from the counter deltas of the measured phase;
- the layer probes (median time of one call of each layer's public function
  over the workload's own inputs);
- trace.overhead_pct: traced ops' median against the untraced ops' median
  of the same run (tracing is on for every other op).

Usage: layers.py RESULT.json TRACE.jsonl   (prints the table)
run.py imports `per_layer` and `span_table`.
"""
import json
import sys
from collections import defaultdict


def span_table(trace_path):
    """{span name: {"calls", "total_ms", "self_ms"}} and the traced op count."""
    spans = {}
    children = defaultdict(list)
    ops = set()
    with open(trace_path, encoding="utf-8") as f:
        for line in f:
            s = json.loads(line)
            spans[s["span"]] = s
            ops.add(s["op"])
            if s["parent"]:
                children[s["parent"]].append(s)
    table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for sid, s in spans.items():
        total = s["end_ns"] - s["start_ns"]
        covered, reach = 0, s["start_ns"]
        for c in sorted(children[sid], key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], reach), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table[s["name"]]
        row["calls"] += 1
        row["total_ms"] += total / 1e6
        row["self_ms"] += (total - covered) / 1e6
    return dict(table), len(ops)


def _mean_call(table, name, scale):
    row = table.get(name)
    return row["total_ms"] / row["calls"] * scale if row else None


def span_metrics(table, traced_ops):
    """Named span metrics; None where the workload has no such
    span (they are printed, not part of the result line)."""
    out = {}
    for name, metric, scale in (
            ("core.scroll_to", "core.set_viewport_us", 1e3),
            ("core.set_cell", "core.set_cell_ms", 1.0),
            ("catalog.row_edit", "catalog.row_edit_ms", 1.0),
            ("db.sql", "db.sql_ms", 1.0),
            ("db.begin", "db.begin_us", 1e3),
            ("db.dml", "db.dml_us", 1e3),
            ("db.commit", "db.commit_ms", 1.0),
            ("db.select", "db.select_ms", 1.0)):
        out[metric] = _mean_call(table, name, scale)
    for band in ("visible", "near", "background"):
        row = table.get("core.sched." + band)
        out[f"core.sched.{band}_ms"] = (
            row["self_ms"] / traced_ops if row and traced_ops else None)
    return out


def _per_op(counters, name, ops):
    return counters.get(name, 0.0) / ops if ops else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Every per-layer metric BENCHMARK.json lists, from one traced run's
    result line (counters, probes and the traced/untraced medians)."""
    c, ops = raw["counters"], raw["ops"]
    accesses = c.get("pager.slot_reads", 0) + c.get("pager.slot_writes", 0)
    sched = sum(c.get(f"sched.{b}", 0) for b in ("visible", "near",
                                                  "background"))
    p = raw["primary"]
    traced, untraced = p.get("traced_p50_ms"), p.get("untraced_p50_ms")
    m = {
        "core.window_moves_per_op": _per_op(c, "wm.window_moves", ops),
        "core.binding.refreshes_per_op": _per_op(c, "binding.refreshes", ops),
        "core.sched.tasks_per_op": _ratio(sched, ops),
        "core.im.dbsql_execs_per_op": _per_op(c, "im.dbsql_execs", ops),
        "core.im.dbsql_cache_hit_ratio": _ratio(
            c.get("im.dbsql_hits", 0),
            c.get("im.dbsql_hits", 0) + c.get("im.dbsql_execs", 0)),
        "core.im.backend_refreshes_per_op":
            _per_op(c, "im.backend_refreshes", ops),
        "formula.cells_evaluated_per_op":
            _per_op(c, "formula.cells_evaluated", ops),
        "db.statements_per_op": _per_op(c, "db.statements", ops),
        "db.conflict_retries_per_txn": _ratio(c.get("txn.retries", 0),
                                              c.get("txn.count", 0)),
        "storage.pager.hit_rate":
            1.0 - _ratio(c.get("pager.faults", 0), accesses),
        "storage.pager.faults_per_op": _per_op(c, "pager.faults", ops),
        "storage.pager.readaheads_per_op": _per_op(c, "pager.readaheads", ops),
        "storage.pager.evictions_per_op": _per_op(c, "pager.evictions", ops),
        "storage.pager.spill_bytes_per_op":
            _per_op(c, "pager.spill_bytes", ops),
        "storage.pager.slot_reads_per_op": _per_op(c, "pager.slot_reads", ops),
        "storage.pager.slot_writes_per_op":
            _per_op(c, "pager.slot_writes", ops),
        "storage.pager.pages_flushed_per_op":
            _per_op(c, "pager.pages_flushed", ops),
        "storage.wal.bytes_per_op": _per_op(c, "wal.bytes", ops),
        "storage.wal.records_per_op": _per_op(c, "wal.records", ops),
        "storage.wal.commits_per_sync": _ratio(c.get("txn.commits", 0),
                                               c.get("wal.syncs", 0)),
        "storage.wal.bytes_at_crash": c.get("wal.bytes_at_crash", 0.0),
        "proc.cpu_ms_per_op": _ratio(raw["cpu_ms"], ops),
        "trace.overhead_pct": ((traced / untraced - 1.0) * 100.0
                               if traced and untraced else 0.0),
    }
    m.update(raw["probes"])
    return m


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        raw = json.loads(f.read().strip().splitlines()[-1])
    table, traced_ops = span_table(argv[2])
    print(f"{'span':28} {'calls':>8} {'self ms/op':>12} {'ms/call':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:28} {row['calls']:8d} "
              f"{row['self_ms'] / max(traced_ops, 1):12.4f} "
              f"{row['total_ms'] / row['calls']:10.4f}")
    for name, value in list(per_layer(raw).items()) + list(
            span_metrics(table, traced_ops).items()):
        if value is not None:
            print(f"{name:36} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
