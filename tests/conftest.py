"""The CLI tests run `python -m zqgeom` in a child process, which finds
this checkout's package only through PYTHONPATH (pyproject's pytest
`pythonpath` setting covers the test process alone)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
