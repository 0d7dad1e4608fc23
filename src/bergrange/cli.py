"""Command line front end.

Subcommands:

* ``build``       write the truncation matrix of a configured operator as CSV
* ``range``       sweep the numerical range boundary of a config or matrix file
* ``check``       run named validation checks, one JSON report per line
* ``list-checks`` show every check id with its claim and default parameters
* ``plot``        render a points file written by ``range`` as a small static SVG

Job configs are JSON objects with the keys ``alpha``, ``truncation``,
``operator`` and optionally ``angles`` and ``seed``.  Unknown fields are
rejected rather than ignored, so a typo cannot silently fall back to a
default.  Fields and overrides are read by the validators of
``bergrange.core``: an integer is a JSON integer, a number an integer or
a float, a pair a list ``[re, im]`` of two numbers, and ``true``/``false``
count as none of these.  Every such error is a UsageError naming the
field.  Exit codes: 0 success, 1 check failures, 2 usage or config
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bergrange.checks import accepted_overrides, list_checks, run_all, run_check
from bergrange.core import (
    DomainError,
    NumericError,
    UsageError,
    _as_int,
    _as_list,
    _as_number,
    _as_pairs,
)
from bergrange.numrange import boundary_points
from bergrange.operators import (
    OperatorTruncation,
    build_toeplitz,
    build_weighted_composition,
    operator_sum,
)

_TOP_KEYS = {"alpha", "truncation", "operator", "angles", "seed"}
_OPERATOR_KINDS = {"toeplitz", "weighted_composition", "sum"}


@dataclass(frozen=True)
class JobConfig:
    alpha: float
    truncation: int
    operator: dict
    angles: int = 360
    seed: int | None = None


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise UsageError(f"unknown field {unknown[0]!r} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise UsageError(f"missing field {key!r} in {where}")
    return obj[key]


def parse_config(text: str) -> JobConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    alpha = _as_number(_require(raw, "alpha", "config"), "config field 'alpha'")
    truncation = _as_int(
        _require(raw, "truncation", "config"), "config field 'truncation'", 2
    )
    operator = _require(raw, "operator", "config")
    if not isinstance(operator, dict):
        raise UsageError("config field 'operator' must be an object")
    angles = 360
    if "angles" in raw:
        angles = _as_int(raw["angles"], "config field 'angles'", 8)
    seed = None
    if "seed" in raw:
        seed = _as_int(raw["seed"], "config field 'seed'", 0)
    return JobConfig(alpha=alpha, truncation=truncation, operator=operator, angles=angles, seed=seed)


def operator_from_spec(spec: dict, alpha: float, truncation: int) -> OperatorTruncation:
    """Check an operator spec and build it in the same walk."""
    return _build_spec(spec, alpha, truncation, "operator")


def _build_spec(spec, alpha: float, truncation: int, where: str) -> OperatorTruncation:
    if not isinstance(spec, dict):
        raise UsageError(f"{where} must be an object")
    _reject_unknown(spec, _OPERATOR_KINDS, where)
    if len(spec) != 1:
        raise UsageError(
            f"{where} must contain exactly one of {sorted(_OPERATOR_KINDS)}, got {sorted(spec)}"
        )
    kind, body = next(iter(spec.items()))
    where = f"{where}.{kind}"
    if kind == "sum":
        body = _as_list(body, where, "operator objects")
        return operator_sum(
            [_build_spec(sub, alpha, truncation, f"{where}[{i}]") for i, sub in enumerate(body)]
        )
    if not isinstance(body, dict):
        raise UsageError(f"{where} must be an object")
    if kind == "toeplitz":
        _reject_unknown(body, {"terms"}, where)
        terms = _as_list(_require(body, "terms", where), f"{where}.terms", "[p, q, re, im] terms")
        symbol = []
        for i, term in enumerate(terms):
            at = f"{where}.terms[{i}]"
            if not isinstance(term, list) or len(term) != 4:
                raise UsageError(f"{at} must be [p, q, re, im], got {term!r}")
            p = _as_int(term[0], f"{at}[0]", 0)
            q = _as_int(term[1], f"{at}[1]", 0)
            re = _as_number(term[2], f"{at}[2]")
            im = _as_number(term[3], f"{at}[3]")
            symbol.append((p, q, complex(re, im)))
        return build_toeplitz(symbol, alpha, truncation)
    _reject_unknown(body, {"psi", "phi"}, where)
    psi = _as_pairs(_require(body, "psi", where), f"{where}.psi")
    phi = _as_pairs(_require(body, "phi", where), f"{where}.phi")
    return build_weighted_composition(psi, phi, alpha, truncation)


def build_operator(config: JobConfig) -> OperatorTruncation:
    return operator_from_spec(config.operator, config.alpha, config.truncation)


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def matrix_to_csv(op: OperatorTruncation) -> str:
    lines = [f"# bergrange matrix truncation={op.truncation} alpha={_fmt(op.alpha)}"]
    # a complex row viewed as floats is re, im, re, im, ...
    lines.extend(",".join(map(repr, row.tolist())) for row in op.matrix.view(float))
    return "\n".join(lines) + "\n"


def _data_lines(text: str):
    """Yield (line number, comma-separated fields) of each line that is not blank or a # comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split(",")


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, fields in _data_lines(text):
        if len(fields) % 2 != 0:
            raise UsageError(f"matrix line {lineno} has an odd number of fields")
        try:
            rows.append(np.fromiter(map(float, fields), float, len(fields)))
        except ValueError as exc:
            raise UsageError(f"matrix line {lineno} is not numeric: {exc}") from exc
    if not rows:
        raise UsageError("matrix file holds no data rows")
    n = len(rows)
    if any(r.size != 2 * n for r in rows):
        raise UsageError(f"matrix file is not square: {n} rows, widths {sorted({r.size // 2 for r in rows})}")
    return np.vstack(rows).view(complex)


def sweep_rows(matrix, n_angles: int):
    return [(theta, pt.real, pt.imag, support) for theta, pt, support in boundary_points(matrix, n_angles)]


def rows_to_csv(rows) -> str:
    lines = ["# theta,re,im,support"]
    for theta, re, im, support in rows:
        lines.append(f"{_fmt(theta)},{_fmt(re)},{_fmt(im)},{_fmt(support)}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, seed=None) -> str:
    payload = {
        "points": [
            {"theta": theta, "re": re, "im": im, "support": support}
            for theta, re, im, support in rows
        ]
    }
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, sort_keys=True) + "\n"


def render_svg(points, width: int = 480, height: int = 480) -> str:
    """Static SVG of a closed boundary polyline with light axes."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = 0.08 * span
    x_lo, x_hi = x_lo - pad, x_lo - pad + span + 2 * pad
    y_lo, y_hi = y_lo - pad, y_lo - pad + span + 2 * pad

    def sx(x):
        return (x - x_lo) / (x_hi - x_lo) * width

    def sy(y):
        return height - (y - y_lo) / (y_hi - y_lo) * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if x_lo < 0 < x_hi:
        parts.append(
            f'<line x1="{sx(0):.6g}" y1="0" x2="{sx(0):.6g}" y2="{height}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    if y_lo < 0 < y_hi:
        parts.append(
            f'<line x1="0" y1="{sy(0):.6g}" x2="{width}" y2="{sy(0):.6g}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    coords = " ".join(f"{sx(x):.6g},{sy(y):.6g}" for x, y in zip(xs, ys))
    parts.append(
        f'<polygon points="{coords}" fill="none" stroke="#1f3d7a" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="6" y="{height - 8}" font-family="monospace" font-size="11" fill="#444444">'
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


def _load_config(args) -> JobConfig:
    """Parse --config and apply --alpha and --truncation with the checks of parse_config."""
    config = parse_config(Path(args.config).read_text())
    if args.alpha is not None:
        config = replace(config, alpha=_as_number(args.alpha, "--alpha"))
    if args.truncation is not None:
        config = replace(config, truncation=_as_int(args.truncation, "--truncation", 2))
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
        angles = config.angles
        seed = config.seed
    else:
        matrix = matrix_from_csv(Path(args.matrix).read_text())
        angles = 360
    # checked here rather than in _load_config so that --matrix sweeps get it too
    if args.angles is not None:
        angles = _as_int(args.angles, "--angles", 8)
    rows = sweep_rows(matrix, angles)
    if args.format == "csv":
        text = rows_to_csv(rows)
    elif args.format == "json":
        text = rows_to_json(rows, seed)
    else:
        text = render_svg([(re, im) for _, re, im, _ in rows])
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.truncation is not None:
        overrides["N"] = args.truncation
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.id == "all":
        reports = run_all(overrides)
    else:
        reports = [run_check(args.id, accepted_overrides(args.id, overrides))]
    text = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)
    _emit(text, args.out)
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
    r.add_argument("--alpha", type=float, help="override the config weight parameter")
    r.add_argument("--truncation", type=int, help="override the config matrix size")
    r.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    r.add_argument("--out", help="output path (stdout when absent)")
    r.set_defaults(fn=_cmd_range)

    c = sub.add_parser("check", help="run named validation checks")
    c.add_argument("id", nargs="?", default="all", help="check id, or 'all'")
    c.add_argument("--alpha", type=float, help="override alpha where a check accepts it")
    c.add_argument("--truncation", type=int, help="override N where a check accepts it")
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
