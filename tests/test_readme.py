"""README's Python examples run as they are written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{n + 1}" for n, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    # padded so that a traceback names the README line
    exec(compile("\n" * line + source, str(README), "exec"), {"__name__": "readme"})
