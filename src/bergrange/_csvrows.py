"""Format or parse one share of the rows of a matrix CSV.

``bergrange.cli`` runs this file as a script in child processes, one per
extra CPU, to spread ``matrix_to_csv`` and ``matrix_from_csv`` over the
CPUs::

    python -I -S _csvrows.py format NCOLS   # raw float64 rows in, CSV lines out
    python -I -S _csvrows.py parse NCOLS    # ASCII CSV lines in, raw float64 out

It imports only ``sys`` and ``array``, so a child starts in milliseconds
and never loads numpy or a BLAS thread pool.  The parent runs its own share
of a parse through ``parse_rows`` too.  Neither function reports where an
input is malformed: the parent then parses the whole text serially, which
raises the error with its line number.
"""

import sys
from array import array


def format_rows(data: bytes, ncols: int) -> str:
    """Native float64 rows of ``ncols`` values as CSV lines, joined by newlines with none at the end."""
    values = array("d")
    values.frombytes(data)
    return "\n".join(",".join(map(repr, values[i : i + ncols])) for i in range(0, len(values), ncols))


def parse_rows(text: str, ncols: int) -> array:
    """The float64 values of each line that is not blank or a # comment; ValueError unless each holds ``ncols``."""
    values = array("d")
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            fields = line.split(",")
            if len(fields) != ncols:
                raise ValueError(f"{len(fields)} fields, not {ncols}")
            values.extend(map(float, fields))
    return values


def main(argv) -> None:
    mode, ncols = argv[1], int(argv[2])
    data = sys.stdin.buffer.read()
    if mode == "format":
        sys.stdout.buffer.write(format_rows(data, ncols).encode("ascii"))
    else:
        sys.stdout.buffer.write(parse_rows(data.decode("ascii"), ncols))


if __name__ == "__main__":
    main(sys.argv)
