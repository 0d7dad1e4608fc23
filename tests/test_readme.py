"""The README's python quick start runs and prints what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_matches_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    largest_support, signed_distance = map(float, out.getvalue().split())
    assert 0.99 < largest_support < 1.0
    assert signed_distance < 0.0
