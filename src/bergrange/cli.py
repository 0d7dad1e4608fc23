"""Command line front end.

Subcommands:

* ``build``       write the truncation matrix of a configured operator as CSV
* ``range``       sweep the numerical range boundary of a config or matrix file
* ``check``       run named validation checks, one JSON report per line
* ``list-checks`` show every check id with its claim and default parameters
* ``plot``        render a points file written by ``range`` as a small static SVG

Job configs are JSON objects with the keys ``alpha``, ``truncation``,
``operator`` and optionally ``angles`` and ``seed``.  The config and each
operator body are declared once, as field tables of (default, reader)
read by ``core._read_fields``, the reader of check parameters too;
``parse_config`` returns the dict it builds, which ``build_operator``
reads.
Unknown fields are rejected rather than ignored, naming the allowed ones,
so a typo cannot silently fall back to a default.  ``--alpha``,
``--truncation`` and ``--angles`` are read by the reader of the config
field they replace; a ``--matrix`` range takes ``--angles`` alone.
``check <id>`` passes its overrides to that check, which rejects one it
does not take; ``check all`` gives each check the ones it takes, writes
the report of each check that completes, and names each check that
raises on stderr as ``error: check <id>: <message>`` (the message alone
where it names the check already), exiting 2.  The
readers are the validators of ``bergrange.core``: an integer is a JSON
integer, a number an integer or a float, a pair a list ``[re, im]`` of
two numbers, and ``true``/``false`` count as none of these.  Every such
error is a UsageError naming the field, a top-level one bare:
``truncation must be an integer, got True``.
Exit codes: 0 success, 1 check failures, 2 usage or config errors.

``matrix_to_csv`` and ``matrix_from_csv`` spread a large matrix over the
available CPUs: this process takes one share of the rows and a child per
extra CPU another, each child a fresh interpreter running the stdlib-only
``_csvrows.py``, which never loads numpy.  The bytes, the parsed bits and
every error, with its line number, are those of the serial code, which
takes any matrix below a floor of work, any call on one CPU and any call
whose children fail; nothing needs setting.  A non-finite entry is a
UsageError naming its line, as is any other entry ``float`` rejects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bergrange import _csvrows
from bergrange.checks import list_checks, run_all, run_check
from bergrange.core import (
    DomainError,
    NumericError,
    _REQUIRED,
    UsageError,
    _as_int,
    _as_number,
    _as_object,
    _as_pairs,
    _int,
    _list_of,
    _read_fields,
)
from bergrange.numrange import boundary_points
from bergrange.operators import (
    OperatorTruncation,
    build_toeplitz,
    build_weighted_composition,
    operator_sum,
)


def _as_term(value, where: str) -> tuple:
    """A Toeplitz term [p, q, re, im]: the triple (p, q, re + i im)."""
    if not isinstance(value, list) or len(value) != 4:
        raise UsageError(f"{where} must be [p, q, re, im], got {value!r}")
    p, q = _as_int(value[0], f"{where}[0]", 0), _as_int(value[1], f"{where}[1]", 0)
    return p, q, complex(_as_number(value[2], f"{where}[2]"), _as_number(value[3], f"{where}[3]"))


# each table maps a field to (default, reader); see core._read_fields
_CONFIG_FIELDS = {
    "alpha": (_REQUIRED, _as_number),
    "truncation": (_REQUIRED, _int(2)),
    "operator": (_REQUIRED, _as_object),
    "angles": (360, _int(8)),
    "seed": (None, _int(0)),
}
# _build_spec reads the body once the spec is known to hold exactly one kind
_OPERATOR_KINDS = dict.fromkeys(("sum", "toeplitz", "weighted_composition"), (None, lambda body, where: body))
_TOEPLITZ_FIELDS = {"terms": (_REQUIRED, _list_of(_as_term, "[p, q, re, im] terms"))}
_COMPOSITION_FIELDS = {"psi": (_REQUIRED, _as_pairs), "phi": (_REQUIRED, _as_pairs)}


def parse_config(text: str) -> dict:
    """The job config as a dict of its ``_CONFIG_FIELDS``, each read and defaulted."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    return _read_fields(raw, _CONFIG_FIELDS, "config")


def operator_from_spec(spec: dict, alpha: float, truncation: int) -> OperatorTruncation:
    """Check an operator spec and build it in the same walk."""
    return _build_spec(spec, alpha, truncation, "operator")


def _build_spec(spec, alpha: float, truncation: int, where: str) -> OperatorTruncation:
    _read_fields(spec, _OPERATOR_KINDS, where)
    if len(spec) != 1:
        raise UsageError(
            f"{where} must contain exactly one of {sorted(_OPERATOR_KINDS)}, got {sorted(spec)}"
        )
    ((kind, body),) = spec.items()
    where = f"{where}.{kind}"
    if kind == "sum":
        read = _list_of(lambda sub, at: _build_spec(sub, alpha, truncation, at), "operator objects")
        return operator_sum(read(body, where))
    if kind == "toeplitz":
        terms = _read_fields(body, _TOEPLITZ_FIELDS, where, f"{where}.")["terms"]
        return build_toeplitz(terms, alpha, truncation)
    fields = _read_fields(body, _COMPOSITION_FIELDS, where, f"{where}.")
    return build_weighted_composition(fields["psi"], fields["phi"], alpha, truncation)


def build_operator(config: dict) -> OperatorTruncation:
    return operator_from_spec(config["operator"], config["alpha"], config["truncation"])


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def matrix_to_csv(op: OperatorTruncation) -> str:
    # a complex row viewed as floats is re, im, re, im, ...
    rows = op.matrix.view(float)
    lines = [f"# bergrange matrix truncation={op.truncation} alpha={_fmt(op.alpha)}"]
    lines.extend(_format_in_parallel(rows) or _csv_lines(rows))
    # the empty last line ends the text with a newline without copying the joined text again
    lines.append("")
    return "\n".join(lines)


def _csv_lines(rows):
    return (",".join(map(repr, row.tolist())) for row in rows)


def _data_lines(text: str):
    """Yield (line number, comma-separated fields) of each line that is not blank or a # comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split(",")


def matrix_from_csv(text: str) -> np.ndarray:
    matrix = _parse_in_parallel(text)
    return _parse_serially(text) if matrix is None else matrix


def _parse_serially(text: str) -> np.ndarray:
    rows = []
    for lineno, fields in _data_lines(text):
        if len(fields) % 2 != 0:
            raise UsageError(f"matrix line {lineno} has an odd number of fields")
        try:
            row = np.fromiter(map(float, fields), float, len(fields))
        except ValueError as exc:
            raise UsageError(f"matrix line {lineno} is not numeric: {exc}") from exc
        finite = np.isfinite(row)
        if not finite.all():
            raise UsageError(f"matrix line {lineno} is not finite: {fields[int(np.argmin(finite))].strip()}")
        rows.append(row)
    if not rows:
        raise UsageError("matrix file holds no data rows")
    n = len(rows)
    if any(r.size != 2 * n for r in rows):
        raise UsageError(f"matrix file is not square: {n} rows, widths {sorted({r.size // 2 for r in rows})}")
    return np.vstack(rows).view(complex)


# ---------------------------------------------------------------------------
# the same serialization spread over the CPUs
#
# A large matrix CSV is formatted or parsed by this process and up to one
# child per extra CPU, each running _csvrows.py on a share of the rows with
# the same repr and float() as the serial code above, which stays the
# reference.  Work is counted in entries plus 4 per nonzero entry when
# formatting (repr of a nonzero double costs about five times repr(0.0)),
# and in characters when parsing.  Every process gets at least a floor of
# it.  On a 2-CPU Xeon, where a child takes about 17 ms to start, two
# processes first beat one at about 300k units of formatting and 2M
# characters of parsing, and the floors put that split at 400k and 2.5M.
# A child that cannot start, fails, or returns short output sends the whole
# call to the serial code, so the bytes and every UsageError are the serial
# ones.

_FORMAT_FLOOR = 200_000
_PARSE_FLOOR = 1_250_000
_CSVROWS = str(Path(__file__).with_name("_csvrows.py"))


class _ShareFailed(Exception):
    """A child or this process could not do its share; the serial code takes over."""


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _processes(work: int, floor: int) -> int:
    """How many processes share ``work``: one per CPU, each with at least ``floor`` of it."""
    return max(1, min(_cpu_count(), work // floor))


@contextmanager
def _children(mode: str, ncols: int, shares):
    """Start one _csvrows.py child per share and yield their stdout streams; reap every child on the way out.

    Each share goes in through an unlinked temporary file rather than a pipe,
    so this process need not wait for a child to start and read it before
    doing its own share.  A child still running when the caller raises is
    killed.
    """
    # imported here, so that a process that never starts a child never loads it
    import subprocess

    procs = []
    try:
        for share in shares:
            with tempfile.TemporaryFile() as stdin:
                stdin.write(share)
                stdin.seek(0)
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-I", "-S", _CSVROWS, mode, str(ncols)],
                        stdin=stdin,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                        bufsize=0,
                    )
                )
        yield [proc.stdout for proc in procs]
        if any(proc.wait() != 0 for proc in procs):
            raise _ShareFailed
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.wait()


def _format_in_parallel(rows: np.ndarray) -> list | None:
    """The CSV lines of ``rows``, a child's share as one newline-joined piece; None to format serially."""
    weight = rows.shape[1] + 4 * np.count_nonzero(rows, axis=1)
    cum = np.cumsum(weight)
    count = _processes(int(cum[-1]), _FORMAT_FLOOR)
    if count < 2:
        return None
    cuts = [0, *np.searchsorted(cum, cum[-1] * np.arange(1, count) / count).tolist(), len(rows)]
    rows = np.ascontiguousarray(rows)
    data = memoryview(rows).cast("B")
    row_bytes = rows.shape[1] * rows.itemsize
    spans = [(a, b) for a, b in zip(cuts[1:], cuts[2:]) if b > a]
    try:
        with _children("format", rows.shape[1], [data[a * row_bytes : b * row_bytes] for a, b in spans]) as outs:
            lines = list(_csv_lines(rows[: cuts[1]]))
            for out, (a, b) in zip(outs, spans):
                piece = out.readall().decode("ascii")
                if piece.count("\n") != b - a - 1:
                    raise _ShareFailed
                lines.append(piece)
        return lines
    except (OSError, UnicodeDecodeError, _ShareFailed):
        return None


def _parse_in_parallel(text: str) -> np.ndarray | None:
    """The matrix of a CSV ``text`` parsed in shares of lines; None to parse serially."""
    count = _processes(len(text), _PARSE_FLOOR)
    if count < 2 or not text.isascii():
        return None
    # the width of the first data line sets the size; a file that breaks it fails a share
    start = 0
    while True:
        end = text.find("\n", start)
        line = text[start : len(text) if end < 0 else end].strip()
        if line and not line.startswith("#"):
            break
        if end < 0:
            return None
        start = end + 1
    ncols = line.count(",") + 1
    # n rows of 2n values take at least (2n)^2 characters
    if ncols % 2 or ncols * ncols > len(text):
        return None
    # cut after a newline, which every splitting of the text into lines also splits at
    inner = {text.find("\n", len(text) * k // count) + 1 for k in range(1, count)} - {0, len(text)}
    cuts = [0, *sorted(inner), len(text)]
    data = memoryview(text.encode("ascii"))
    out = np.empty((ncols // 2, ncols))
    flat = memoryview(out).cast("B")
    try:
        with _children("parse", ncols, [data[a:b] for a, b in zip(cuts[1:], cuts[2:])]) as outs:
            own = _csvrows.parse_rows(text[: cuts[1]], ncols)
            if len(own) > out.size:
                raise _ShareFailed
            out.reshape(-1)[: len(own)] = own
            done = len(own) * out.itemsize
            for stream in outs:
                while done < len(flat) and (got := stream.readinto(flat[done:])):
                    done += got
            if done != len(flat) or any(stream.read(1) for stream in outs):
                raise _ShareFailed
    except (OSError, ValueError, _ShareFailed):
        return None
    return out.view(complex) if np.isfinite(out).all() else None


def rows_to_csv(rows) -> str:
    lines = ["# theta,re,im,support"]
    for theta, re, im, support in rows:
        lines.append(f"{_fmt(theta)},{_fmt(re)},{_fmt(im)},{_fmt(support)}")
    lines.append("")
    return "\n".join(lines)


def rows_to_json(rows, seed=None) -> str:
    payload = {
        "points": [
            {"theta": theta, "re": re, "im": im, "support": support}
            for theta, re, im, support in rows
        ]
    }
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


# side of the square SVG canvas, in pixels
_SVG_SIZE = 480


def render_svg(points) -> str:
    """Static SVG, _SVG_SIZE pixels square, of a closed boundary polyline with light axes."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = 0.08 * span
    x_lo, x_hi = x_lo - pad, x_lo - pad + span + 2 * pad
    y_lo, y_hi = y_lo - pad, y_lo - pad + span + 2 * pad

    def sx(x):
        return (x - x_lo) / (x_hi - x_lo) * _SVG_SIZE

    def sy(y):
        return _SVG_SIZE - (y - y_lo) / (y_hi - y_lo) * _SVG_SIZE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    if x_lo < 0 < x_hi:
        parts.append(
            f'<line x1="{sx(0):.6g}" y1="0" x2="{sx(0):.6g}" y2="{_SVG_SIZE}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    if y_lo < 0 < y_hi:
        parts.append(
            f'<line x1="0" y1="{sy(0):.6g}" x2="{_SVG_SIZE}" y2="{sy(0):.6g}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    coords = " ".join(f"{sx(x):.6g},{sy(y):.6g}" for x, y in zip(xs, ys))
    parts.append(
        f'<polygon points="{coords}" fill="none" stroke="#1f3d7a" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="6" y="{_SVG_SIZE - 8}" font-family="monospace" font-size="11" fill="#444444">'
        f"re [{x_lo:.6g}, {x_hi:.6g}]  im [{y_lo:.6g}, {y_hi:.6g}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _override(name: str, value, current):
    """``--name value`` read by the reader of config field ``name``; ``current`` when not given."""
    return current if value is None else _CONFIG_FIELDS[name][1](value, f"--{name}")


def _load_config(args) -> dict:
    """Parse --config and apply --alpha and --truncation."""
    config = parse_config(Path(args.config).read_text())
    for name in ("alpha", "truncation"):
        config[name] = _override(name, getattr(args, name), config[name])
    return config


def _cmd_build(args) -> int:
    config = _load_config(args)
    _emit(matrix_to_csv(build_operator(config)), args.out)
    return 0


def _cmd_range(args) -> int:
    if bool(args.config) == bool(args.matrix):
        raise UsageError("pass exactly one of --config or --matrix")
    seed = None
    if args.config:
        config = _load_config(args)
        matrix = build_operator(config).matrix
        angles = config["angles"]
        seed = config["seed"]
    else:
        if args.alpha is not None or args.truncation is not None:
            raise UsageError("--alpha and --truncation apply to --config only; a --matrix file is swept as it is")
        matrix = matrix_from_csv(Path(args.matrix).read_text())
        angles = _CONFIG_FIELDS["angles"][0]
    # read here rather than in _load_config so that --matrix sweeps get it too
    points = boundary_points(matrix, _override("angles", args.angles, angles))
    rows = [(theta, pt.real, pt.imag, support) for theta, pt, support in points]
    if args.format == "csv":
        text = rows_to_csv(rows)
    elif args.format == "json":
        text = rows_to_json(rows, seed)
    else:
        text = render_svg([(re, im) for _, re, im, _ in rows])
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    overrides = {k: v for k, v in (("alpha", args.alpha), ("N", args.truncation), ("seed", args.seed)) if v is not None}
    raised = []
    if args.id != "all":
        # a single check rejects an override it does not take
        reports = [run_check(args.id, overrides)]
    else:

        def name_error(check_id, exc):
            # an error that already names its check, as a report's refusal does, is not named twice
            message = str(exc)
            if not message.startswith(f"check {check_id} "):
                message = f"check {check_id}: {message}"
            print(f"error: {message}", file=sys.stderr)
            raised.append(check_id)

        # each check takes the overrides it accepts, and one that raises is
        # named on stderr while the others still report
        reports = run_all(overrides, on_error=name_error)
    text = "".join(json.dumps(r.to_dict(), sort_keys=True, allow_nan=False) + "\n" for r in reports)
    _emit(text, args.out)
    if raised:
        return 2
    return 0 if all(r.passed for r in reports) else 1


def _cmd_list_checks(args) -> int:
    lines = []
    for check_id, claim, defaults in list_checks():
        lines.append(f"{check_id}\t{claim}\t{json.dumps(defaults, sort_keys=True)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_plot(args) -> int:
    points = []
    for lineno, fields in _data_lines(Path(args.points).read_text()):
        if len(fields) != 4:
            raise UsageError(f"points line {lineno} must be theta,re,im,support")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise UsageError(f"points line {lineno} is not numeric: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise UsageError(f"points line {lineno} is not finite: {','.join(fields)}")
        points.append((values[1], values[2]))
    if len(points) < 3:
        raise UsageError("points file holds fewer than three boundary points")
    _emit(render_svg(points), args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bergrange",
        description="Truncations of Bergman-space operators and their numerical ranges.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write the configured truncation matrix as CSV")
    b.add_argument("--config", required=True, help="JSON job config")
    b.add_argument("--out", help="output path (stdout when absent)")
    b.add_argument("--alpha", type=float, help="override the config weight parameter")
    b.add_argument("--truncation", type=int, help="override the config matrix size")
    b.set_defaults(fn=_cmd_build)

    r = sub.add_parser("range", help="sweep the numerical range boundary")
    r.add_argument("--config", help="JSON job config")
    r.add_argument("--matrix", help="matrix CSV produced by the build subcommand")
    r.add_argument("--angles", type=int, help="number of sweep directions")
    r.add_argument("--alpha", type=float, help="override the config weight parameter (--config only)")
    r.add_argument("--truncation", type=int, help="override the config matrix size (--config only)")
    r.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    r.add_argument("--out", help="output path (stdout when absent)")
    r.set_defaults(fn=_cmd_range)

    c = sub.add_parser("check", help="run named validation checks")
    c.add_argument("id", nargs="?", default="all", help="check id, or 'all'")
    c.add_argument("--alpha", type=float, help="override alpha; with 'all', in the checks that accept it")
    c.add_argument("--truncation", type=int, help="override N; with 'all', in the checks that accept it")
    c.add_argument("--seed", type=int, help="recorded in each report")
    c.add_argument("--out", help="output path (stdout when absent)")
    c.set_defaults(fn=_cmd_check)

    lc = sub.add_parser("list-checks", help="list check ids, claims, and defaults")
    lc.add_argument("--out", help="output path (stdout when absent)")
    lc.set_defaults(fn=_cmd_list_checks)

    pl = sub.add_parser("plot", help="render boundary points as a static SVG")
    pl.add_argument("--points", required=True, help="CSV produced by the range subcommand")
    pl.add_argument("--out", help="output path (stdout when absent)")
    pl.set_defaults(fn=_cmd_plot)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, DomainError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
