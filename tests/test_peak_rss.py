"""tools/peak_rss.py: one JSON line with a modalsim command's exit code and peak RSS."""

import json
import sys

from spawn import ROOT, run

TOOL = [sys.executable, str(ROOT / "tools" / "peak_rss.py")]


def test_peak_rss_prints_the_exit_code_and_peak_of_one_command(tmp_path):
    out = tmp_path / "profile.json"
    res = run(TOOL + ["profile", "--scenario", "lrw-like", "--out", str(out)], timeout=300)
    assert res.returncode == 0, res.stderr
    (line,) = res.stdout.splitlines()
    doc = json.loads(line)
    assert sorted(doc) == ["exit_code", "peak_rss_mb"]
    assert doc["exit_code"] == 0 and 1 < doc["peak_rss_mb"] < 1024
    assert "wrote profile" in res.stderr and json.loads(out.read_text())["entries"]


def test_peak_rss_reports_a_failing_command_exit_code(tmp_path):
    res = run(TOOL + ["profile", "--scenario", "no-such-preset", "--out", str(tmp_path / "p.json")], timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["exit_code"] == 2
