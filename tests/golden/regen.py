#!/usr/bin/env python
"""Regenerate the golden Chrome export from the synthetic trace fixture
in ``tests/test_obs_analysis.py``:

    PYTHONPATH=src python tests/golden/regen.py

Only run this after an *intentional* change to the export format, and
review the diff — the golden pins the exporter's exact bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from test_obs_analysis import _synthetic_serial_events  # noqa: E402

from repro.obs.export import export_trace  # noqa: E402


def main() -> None:
    out = HERE / "trace_serial.chrome.json"
    export_trace(_synthetic_serial_events(), out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
