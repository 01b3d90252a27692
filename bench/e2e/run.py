#!/usr/bin/env python3
"""Builds ds_e2e from this checkout and runs the end-to-end benchmark.

    python3 bench/e2e/run.py --workload pan|sheet_edit|dbsql|oltp|all
                             [--seed N] [--seconds S] [--trace [0|1]]
                             [--out FILE] [--smoke]

Each workload runs in its own ds_e2e process over a scratch directory that is
removed afterwards. The last line of standard output is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics BENCHMARK.json lists, or with --trace 1 its
per-layer metrics. Lines before it describe the run for a reader; --out FILE
appends the full record of each run (stamps, metrics, details) as one JSON
line, the input compare.py reads. --smoke runs every workload (or the one
named) briefly and checks correctness only. The exit code is 0 only when
every check passed. README.md describes the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__/
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Under build*/, which the repository's .gitignore already covers.
BUILD_DIR = os.path.join(ROOT, "build-e2e")
SCRATCH_DIR = os.path.join(BUILD_DIR, "scratch")
EXE = os.path.join(BUILD_DIR, "ds_e2e")
WORKLOADS = ("pan", "sheet_edit", "dbsql", "oltp")
# What the two latency classes of each workload are (README.md).
CLASSES = {
    "pan": ("scroll: screen hop", "scroll: jump"),
    "sheet_edit": ("recalc: cell edit", "rowedit: insert/delete"),
    "dbsql": ("query: parameter edit", "back-end UPDATE"),
    "oltp": ("txn: BEGIN..COMMIT", "query: reader SELECT"),
}


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds ds_e2e incrementally; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no DataSpread sources (CMakeLists.txt, src/) under {ROOT}")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "ds_e2e",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain export of the tree
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_ds_e2e(workload, args):
    """Runs one ds_e2e process; returns (raw result, per-layer metrics, span
    metrics), the latter two only for traced runs."""
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=workload + "-", dir=SCRATCH_DIR)
    trace_path = os.path.join(scratch, "trace.jsonl")
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--dir", scratch]
    if args.trace:
        cmd += ["--trace", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 120)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            die(f"ds_e2e printed no result (exit {proc.returncode})")
        raw = json.loads(lines[-1])
        if not args.trace:
            return raw, None, None
        table, traced_ops = layers.span_table(trace_path)
        return (raw, layers.per_layer(raw),
                layers.span_metrics(table, traced_ops))
    except subprocess.TimeoutExpired:
        die(f"ds_e2e {workload} did not finish in time")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(raw):
    p, s = raw["primary"], raw["secondary"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]) if raw["setup_s"]
                    else None),
        "primary_p50_ms": p["p50_ms"],
        "secondary_p50_ms": s["p50_ms"],
        "ops_per_s": (raw["ops"] / raw["measured_s"] if raw["measured_s"]
                      else None),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report(workload, args, spec, stamps):
    raw, per_layer, spans = run_ds_e2e(workload, args)
    computed = per_layer if args.trace else end_to_end(raw)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"]), "unit": m["unit"]}
               for m in listed}
    missing = [n for n, m in metrics.items() if m["value"] is None]
    # A smoke run checks correctness only; its classes may be too small.
    correct = (raw["failed"] == 0 and raw["attempted"] > 0
               and (args.smoke or not missing))

    head = dict(stamps, workload=workload, seed=args.seed,
                threads=raw["threads"], nproc=raw["nproc"],
                build_type=raw["build_type"],
                trace=int(args.trace), seconds=args.seconds)
    print("# " + " ".join(f"{k}={v}" for k, v in head.items()))
    print(f"#   {'ok' if correct else 'FAILED'}: attempted {raw['attempted']}, "
          f"failed {raw['failed']}, fail_ratio "
          f"{raw['failed'] / max(raw['attempted'], 1):.6g}")
    for failure in raw["failures"]:
        print(f"#   failure: {failure}")
    if missing:
        print(f"#   no value for: {', '.join(missing)}")
    for cls, label in zip(("primary", "secondary"), CLASSES[workload]):
        c = raw[cls]
        print(f"#   {cls} ({label}): n={c['n']} p50={c['p50_ms']} ms "
              f"p90={c['p90_ms']} ms p99={c['p99_ms']} ms")
    if raw["recover_s"]:
        print(f"#   recover_s (Open + full shadow check, per copy): "
              f"{raw['recover_s']}")
    print(f"#   setup_s per set-up: {raw['setup_s']}")
    for name, value in (spans or {}).items():
        if value is not None:
            print(f"#   span {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']} {m['unit']}")

    if args.out:
        record = dict(head, correct=correct, attempted=raw["attempted"],
                      failed=raw["failed"], failures=raw["failures"],
                      metrics={n: m["value"] for n, m in metrics.items()},
                      spans=spans, raw=raw)
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return correct


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="append each run's record here")
    parser.add_argument("--smoke", action="store_true",
                        help="a short correctness-only run")
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    stamps = {"git_sha": git_sha()}
    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in todo:
        ok = report(workload, args, spec, stamps) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
