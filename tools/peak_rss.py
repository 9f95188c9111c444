"""Peak resident memory of one modalsim command.

Runs the command in a child process, with this checkout's `src/` first on
its PYTHONPATH, and prints one JSON line on stdout: the child's exit code
and its peak RSS in MB (`ru_maxrss` of `RUSAGE_CHILDREN`, KiB on Linux,
over 1024).  The child's own stdout goes to stderr, so stdout holds only
that line:

    python tools/peak_rss.py run --scenario uav-like --mode non_blocking --samples 3000 --out t.jsonl
    python tools/peak_rss.py report --trace t.jsonl --out t.csv
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "modalsim.cli", *argv], env={**os.environ, "PYTHONPATH": path}, stdout=sys.stderr
    )
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"exit_code": child.returncode, "peak_rss_mb": round(peak_kib / 1024, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
