"""Each demo script runs to completion against the package in `src/`."""

import sys

import pytest
from spawn import ROOT, run

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    res = run([sys.executable, str(demo)], cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
