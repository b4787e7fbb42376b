"""Write ``transport.json``: the per-block reference outputs of every
scenario in ``scenarios.py``.

The fixture was generated once, from commit 4b17dd8 (the last revision
that still carried the per-block event cascade), with::

    REPRO_SIM_PERBLOCK=1 PYTHONPATH=src python tests/sim/golden/generate.py

It is the oracle ``tests/sim/test_golden_burst.py`` holds the burst
engine to.  Regenerating it from a later revision would make the suite
compare the burst engine with itself, so do not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from scenarios import scenarios

FIXTURE = Path(__file__).with_name("transport.json")


def main() -> None:
    root = Path(__file__).resolve().parents[3]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    records = {}
    for group, build in scenarios().items():
        t0 = time.perf_counter()
        for name, run in build():
            records[name] = run()
        print(f"{group}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    doc = {
        "source": {"commit": commit,
                   "REPRO_SIM_PERBLOCK": os.environ.get(
                       "REPRO_SIM_PERBLOCK", "")},
        "scenarios": records,
    }
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
