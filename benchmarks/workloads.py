"""Seeded workloads of the bergrange benchmark, and the checks of their outputs.

A workload is a sequence of passes; a pass is a fixed list of jobs whose
sizes do not depend on the seed, so passes cost the same from seed to seed
and only the operator coefficients change.  Each job has a ``run`` step,
which is timed and goes through the library, and a ``verify`` step, which
is not timed and returns a list of problems (empty when the output is
right).

* ``checks_suite``: the 21 registered checks at their defaults, one job
  per check, in registry order; a pass does exactly what ``run_all`` does.
* ``range_dense``: ``bergrange range --config`` on dense weighted
  compositions, one job per size in ``RANGE_SIZES``.
* ``build_io``: ``bergrange build`` of Toeplitz and composition operators
  at the sizes in ``BUILD_SIZES``, each written as CSV and read back with
  ``matrix_from_csv``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RANGE_ANGLES = 360
RANGE_SIZES = (96, 128, 160, 192)
BUILD_SIZES = (600, 800)
ALPHAS = (0.0, 0.5, 2.0)
# fixed degrees keep the zero pattern of composition matrices, and with it
# the cost of their CSV, the same under every seed
PSI_DEGREE = 3
PHI_DEGREE = 2
# seeded angle indices per range job at which the support is recomputed
# with an independent dense eigensolve
RANGE_PROBES = 3
# relative tolerance of the support identities checked on range output
RANGE_RTOL = 1e-9


def _pairs(coeffs) -> list:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def random_self_map(rng: np.random.Generator, degree: int) -> np.ndarray:
    """phi of the given degree with phi(0) != 0 and sum |phi_k| < 1.

    The coefficient-sum bound makes phi a self-map of the closed disk
    outright, and a nonzero constant term makes every column of the
    composition matrix dense.
    """
    mags = rng.uniform(0.5, 1.0, degree + 1)
    mags *= rng.uniform(0.6, 0.9) / mags.sum()
    return mags * np.exp(2j * np.pi * rng.uniform(size=degree + 1))


def random_weight(rng: np.random.Generator, degree: int) -> np.ndarray:
    return 0.5 * (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))


def composition_spec(rng: np.random.Generator) -> dict:
    psi = random_weight(rng, PSI_DEGREE)
    phi = random_self_map(rng, PHI_DEGREE)
    return {"weighted_composition": {"psi": _pairs(psi), "phi": _pairs(phi)}}


def toeplitz_spec(rng: np.random.Generator) -> dict:
    """Bi-polynomial symbol of degree <= 3 with one term on each of 5 diagonals.

    A term c z^p conj(z)^q fills the diagonal m - n = p - q, so the matrix
    always has 5 nonzero diagonals and its CSV costs the same under every
    seed.
    """
    terms = []
    for d, c in zip(rng.choice(np.arange(-3, 4), size=5, replace=False), random_weight(rng, 4)):
        d, q = int(d), int(rng.integers(0, 4 - abs(d)))
        terms.append([q + max(d, 0), q + max(-d, 0), float(c.real), float(c.imag)])
    return {"toeplitz": {"terms": terms}}


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _alpha(pass_index: int, slot: int) -> float:
    """Alphas cycle by position, so every seed gets the same sequence."""
    return ALPHAS[(pass_index + slot) % len(ALPHAS)]


def range_configs(seed: int, pass_index: int) -> list:
    """One range_dense pass: a config per size, in ascending size."""
    rng = _rng(seed, pass_index)
    return [
        {
            "alpha": _alpha(pass_index, slot),
            "truncation": n,
            "angles": RANGE_ANGLES,
            "operator": composition_spec(rng),
        }
        for slot, n in enumerate(RANGE_SIZES)
    ]


def build_configs(seed: int, pass_index: int) -> list:
    """One build_io pass: a Toeplitz and a composition config per size."""
    rng = _rng(seed, pass_index)
    kinds = [(n, make) for n in BUILD_SIZES for make in (toeplitz_spec, composition_spec)]
    return [
        {"alpha": _alpha(pass_index, slot), "truncation": n, "operator": make(rng)}
        for slot, (n, make) in enumerate(kinds)
    ]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when all is well


def parse_rows(text: str, fmt: str) -> list:
    """Rows (theta, re, im, support) of ``range`` output in CSV or JSON."""
    if fmt == "json":
        return [(p["theta"], p["re"], p["im"], p["support"]) for p in json.loads(text)["points"]]
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            theta, re, im, support = (float(f) for f in line.split(","))
            rows.append((theta, re, im, support))
    return rows


def check_range_rows(rows, matrix: np.ndarray, n_angles: int, probes) -> list:
    """Support identities of a boundary sweep.

    Every row must satisfy Re(e^{-i theta} point) = support, and at the
    probe indices the support must equal the top eigenvalue of the rotated
    Hermitian part, computed here with ``np.linalg.eigvalsh``.
    """
    if len(rows) != n_angles:
        return [f"expected {n_angles} rows, got {len(rows)}"]
    problems = []
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    for k, (theta, re, im, support) in enumerate(rows):
        if theta != thetas[k]:
            problems.append(f"row {k}: theta {theta!r} is not grid angle {thetas[k]!r}")
        proj = (np.exp(-1j * theta) * complex(re, im)).real
        if abs(proj - support) > RANGE_RTOL * max(1.0, abs(support)):
            problems.append(f"row {k}: Re(e^-i theta point) = {proj!r} but support = {support!r}")
    for k in probes:
        rot = np.exp(-1j * thetas[k])
        h = float(np.linalg.eigvalsh((rot * matrix + np.conj(rot) * matrix.conj().T) / 2.0)[-1])
        support = rows[k][3]
        if abs(h - support) > RANGE_RTOL * max(1.0, abs(h)):
            problems.append(f"row {k}: support {support!r} but eigvalsh gives {h!r}")
    return problems


def check_matrix_csv(text: str, parsed: np.ndarray, expected: np.ndarray, reemitted: str) -> list:
    """A matrix CSV, its parse, the in-process build and the CSV re-emitted from the parse."""
    problems = []
    if not np.all(np.isfinite(parsed)):
        problems.append("parsed matrix has non-finite entries")
    if parsed.shape != expected.shape or not np.array_equal(parsed, expected):
        problems.append("parsed matrix differs from the in-process build")
    if reemitted != text:
        problems.append("CSV re-emitted from the parsed matrix is not byte-identical")
    return problems


# ---------------------------------------------------------------------------
# workloads


class ChecksSuite:
    """Every registered check at its defaults, with the seed recorded."""

    name = "checks_suite"
    scaled = True

    def __init__(self, seed: int, workdir: Path):
        from bergrange import checks

        self.checks = checks
        self.seed = seed
        self.ids = [cid for cid, _, _ in checks.list_checks()]
        self.first = {}

    def warm_up(self):
        self.checks.run_check("c2_polygon")

    def jobs(self, pass_index: int) -> list:
        return [(cid, cid) for cid in self.ids]

    def run(self, cid):
        # looked up on the module at call time so a traced run sees the wrapper
        return self.checks.run_check(cid, {"seed": self.seed})

    def verify(self, cid, report) -> list:
        problems = [] if report.passed else [f"{cid}: check failed"]
        text = json.dumps(report.to_dict(), sort_keys=True)
        if self.first.setdefault(cid, text) != text:
            problems.append(f"{cid}: to_dict() differs from the first pass")
        return problems


class RangeDense:
    """``range --config`` on dense compositions, alternating CSV and JSON output."""

    name = "range_dense"
    # few long jobs: reference samples taken between them miss the host's
    # state during the jobs, and scaling by them doubled the run-to-run
    # spread of run_s (7.8% unscaled, 13.5% scaled, on the same ten runs)
    scaled = False

    def __init__(self, seed: int, workdir: Path):
        from bergrange import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "range.out"

    def _job(self, slot: int, config: dict, probes) -> dict:
        path = self.workdir / f"range-{slot}.json"
        path.write_text(json.dumps(config))
        return {"config": config, "path": path, "fmt": ("csv", "json")[slot % 2], "probes": probes}

    def warm_up(self):
        self.run(self._job(0, {**range_configs(self.seed, 0)[0], "truncation": 32}, []))

    def jobs(self, pass_index: int) -> list:
        rng = np.random.default_rng([self.seed, pass_index, 1])
        out = []
        for slot, config in enumerate(range_configs(self.seed, pass_index)):
            job = self._job(slot, config, rng.choice(config["angles"], size=RANGE_PROBES, replace=False))
            out.append((f"range N={config['truncation']} {job['fmt']}", job))
        return out

    def run(self, job) -> None:
        argv = ["range", "--config", str(job["path"]), "--format", job["fmt"], "--out", str(self.out_path)]
        code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bergrange range exited with {code}")

    def verify(self, job, _) -> list:
        cli = self.cli
        fmt, config = job["fmt"], job["config"]
        text = self.out_path.read_text()
        rows = parse_rows(text, fmt)
        emit = {"csv": cli.rows_to_csv, "json": cli.rows_to_json}
        problems = []
        if emit[fmt](rows) != text:
            problems.append(f"{fmt} output is not reproduced from its parsed rows")
        other = "json" if fmt == "csv" else "csv"
        if parse_rows(emit[other](rows), other) != rows:
            problems.append(f"rows do not survive a round trip through {other}")
        matrix = cli.build_operator(cli.parse_config(json.dumps(config))).matrix
        return problems + check_range_rows(rows, matrix, config["angles"], job["probes"])


class BuildIO:
    """``build`` to a CSV file, then the CSV read back with ``matrix_from_csv``."""

    name = "build_io"
    scaled = True

    def __init__(self, seed: int, workdir: Path):
        from bergrange import cli, operators

        self.cli = cli
        self.operators = operators
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "build.csv"

    def _job(self, slot: int, config: dict) -> dict:
        path = self.workdir / f"build-{slot}.json"
        path.write_text(json.dumps(config))
        return {"config": config, "path": path}

    def warm_up(self):
        self.run(self._job(0, {**build_configs(self.seed, 0)[1], "truncation": 64}))

    def jobs(self, pass_index: int) -> list:
        out = []
        for slot, config in enumerate(build_configs(self.seed, pass_index)):
            label = f"build N={config['truncation']} {next(iter(config['operator']))}"
            out.append((label, self._job(slot, config)))
        return out

    def run(self, job):
        code = self.cli.main(["build", "--config", str(job["path"]), "--out", str(self.out_path)])
        if code != 0:
            raise RuntimeError(f"bergrange build exited with {code}")
        text = self.out_path.read_text()
        return text, self.cli.matrix_from_csv(text)

    def verify(self, job, result) -> list:
        text, parsed = result
        cli = self.cli
        alpha = job["config"]["alpha"]
        expected = cli.build_operator(cli.parse_config(json.dumps(job["config"]))).matrix
        reemitted = cli.matrix_to_csv(self.operators.OperatorTruncation(parsed, alpha))
        return check_matrix_csv(text, parsed, expected, reemitted)


WORKLOADS = {w.name: w for w in (ChecksSuite, RangeDense, BuildIO)}
