"""The README's python quick start runs and prints what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from bergrange.numrange import _angle_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_matches_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    largest_support, signed_distance = map(float, out.getvalue().split())
    assert 0.99 < largest_support < 1.0
    assert signed_distance < 0.0
    # the sweep pairs and mirrors only the exact grid of boundary_points
    assert np.array_equal(namespace["theta"], _angle_grid(360))
