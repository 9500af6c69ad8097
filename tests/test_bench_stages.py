"""The benchmark's per-layer tracer runs on the engine as it stands.

``bench/stages.py`` traces one operation with ``bench/spans.py``, which
wraps ``relalg.evaluate`` and reads the relations it returns, so a change
to the engine's public names or its ``Relation`` breaks this test rather
than only ``bench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [["--chain", "2"], ["--persons", "30", "--derive"]])
def test_stages_traces_evaluation(args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows_out = [line.split() for line in proc.stdout.splitlines() if line.startswith("relalg.rows_out")]
    assert len(rows_out) == 1, proc.stdout
    assert float(rows_out[0][1]) > 0
