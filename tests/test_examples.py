"""The shipped examples run: each sub-second ``examples/*.py`` script
exits 0 in a fresh interpreter, so a broken example fails CI.

``simulate_runs.py`` and ``travel_booking.py`` take ~10 s each and are
left out; ``tests/test_simulator.py`` and ``tests/test_travel.py`` cover
what they drive.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

QUICK_EXAMPLES = (
    "arithmetic_budget.py",
    "batch_service.py",
    "dsl_quickstart.py",
    "order_fulfillment.py",
    "quickstart.py",
)


@pytest.mark.parametrize("script", QUICK_EXAMPLES)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
