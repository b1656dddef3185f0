"""Make the benchmark's flat modules (and ``repro``) importable."""

import sys
from pathlib import Path

WALLCLOCK = Path(__file__).resolve().parent.parent
for path in (WALLCLOCK, WALLCLOCK.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
