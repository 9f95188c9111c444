#!/usr/bin/env python3
"""Self-test: exact figures repeat bit for bit across two traced runs.

    python3 perfbench/selftest.py [--seed 0] [--workload NAME ...]

Runs each workload twice with `--trace 1 --seconds 1` in fresh processes and
compares every metric marked exact (counts, trace bytes, simulated latencies,
decision scores, the first-pass digest).  Host timings are not compared.
Exits 1 if any exact figure differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online-gated", "sim-dense", "search-wide")


def traced_run(workload: str, seed: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if res.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{res.stderr[-2000:]}")
    side = ROOT / ".perfbench" / f"metrics-{workload}-{seed}-trace1.json"
    return json.loads(side.read_text(encoding="utf-8"))


def exact_figures(doc: dict) -> dict:
    out = {"first_pass_sha256": doc["first_pass_sha256"]}
    out.update({k: v["value"] for k, v in doc["metrics"].items() if v["exact"]})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    bad = 0
    for workload in args.workload or WORKLOADS:
        first, second = (exact_figures(traced_run(workload, args.seed)) for _ in range(2))
        diffs = [k for k in first.keys() | second.keys() if first.get(k) != second.get(k)]
        print(f"{workload}: {len(first)} exact figures, {len(diffs)} differ")
        for k in sorted(diffs):
            print(f"  {k}: {first.get(k)!r} != {second.get(k)!r}")
        bad += bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
