"""Every public name is used by the package or its benchmark, not by tests alone.

A name in the ``__all__`` of a library module must occur in
``src/bergrange/*.py`` or ``benchmarks/*.py`` somewhere other than the
``def`` or ``class`` line that defines it; its ``__all__`` entry is a
string, not a name, and does not count.  A helper that only tests reach
belongs in the test that needs it.
"""

import io
import tokenize
from pathlib import Path

from bergrange import checks, core, numrange, operators

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bergrange").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def _used_names() -> set:
    """The names that occur in SOURCES as a name token, except right after ``def`` or ``class``."""
    used = set()
    for path in SOURCES:
        previous = None
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(token.string)
            previous = token.string
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = [f"{module.__name__}.{name}" for module in (core, operators, numrange, checks) for name in module.__all__ if name not in used]
    assert not unused
