import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parent.parent
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
