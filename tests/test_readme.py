"""Every Python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), flags=re.M | re.S)


def test_the_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_a_readme_python_block_runs(code):
    exec(compile(code, str(_README), "exec"), {"__name__": "readme"})
