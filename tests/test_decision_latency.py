"""tools/decision_latency.py: one JSON line of optimizer decision latencies."""

import json
import sys

from spawn import ROOT, run

TOOL = [sys.executable, str(ROOT / "tools" / "decision_latency.py")]


def test_decision_latency_prints_quartiles_per_shape():
    res = run(TOOL + ["--decisions", "8", "2x2", "3x2"], timeout=300)
    assert res.returncode == 0, res.stderr
    (line,) = res.stdout.splitlines()
    doc = json.loads(line)
    assert list(doc) == ["2x2", "3x2"]
    assert [doc[shape]["assignments"] for shape in doc] == [16, 64]
    for figures in doc.values():
        assert sorted(figures) == ["assignments", "decisions", "median_us", "q1_us", "q3_us"]
        assert figures["decisions"] == 8
        assert 0 < figures["q1_us"] <= figures["median_us"] <= figures["q3_us"]
