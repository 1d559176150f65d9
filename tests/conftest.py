"""The CLI tests run `python -m zqgeom` in a child process, which finds
this checkout's package only through PYTHONPATH (pyproject's pytest
`pythonpath` setting covers the test process alone).

Hypothesis derives each test's examples from the test itself, so every
run of the suite tries the same examples, and no example fails for its
running time alone."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
