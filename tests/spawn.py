"""Child processes that import the package from this checkout's `src/`.

pyproject's `pythonpath` setting reaches the pytest process only, so every
spawned CLI or demo gets `src/` first on its PYTHONPATH here; bare
`python -m pytest` then works from a fresh checkout.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "modalsim.cli"]


def run(args, **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run(args)` with `src/` on PYTHONPATH, capturing text output."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(args, env=env, capture_output=True, text=True, **kwargs)
