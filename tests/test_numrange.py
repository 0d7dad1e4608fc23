"""Numerical range sweep tests.

The oracle for 2 x 2 matrices is the elliptical range description (foci
at the eigenvalues, minor axis from the trace defect), whose support
function has a closed form; sweeps are compared against it in support
form to avoid the inscribed-polygon sag.  Larger cases rely on exact
structural facts: truncation monotonicity, unitary invariance, affine
equivariance.
"""

import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from bergrange import numrange
from bergrange.checks import _compare
from bergrange.core import NumericError, UsageError, series_eval
from bergrange.numrange import (
    DiscSpec,
    EllipseSpec,
    HullPolygon,
    boundary_points,
    convex_hull,
    ellipse_from_2x2,
    numerical_range_hull,
    support_function,
    support_of,
    _Block,
    _angle_grid,
    _image_samples,
    _range_basis,
    _residue_classes,
    _scale_entries,
)
from bergrange.operators import BiPolySymbol, build_multiplication, build_toeplitz, build_weighted_composition

GRID = 2.0 * np.pi * np.arange(256) / 256
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _src_env():
    """The environment of a subprocess that imports bergrange from this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _structured_matrices():
    """(name, matrix) pairs covering each solver of the sweep kernel."""
    rng = np.random.default_rng(31)
    lam3 = np.exp(2j * np.pi / 3)
    # tridiagonal Toeplitz with harmonic symbol z + a conj(z)
    yield "t3", build_toeplitz(BiPolySymbol(((1, 0, 1.0), (0, 1, 0.5))), 0.0, 64).matrix
    # weight g(z^3) over the order-3 rotation: three residue-class blocks, each bidiagonal
    yield "th1", build_weighted_composition([0.5, 0.0, 0.0, 0.5], [0.0, lam3], 0.0, 100).matrix
    # weights z^n + c z^(n(n+1)): n blocks of half-bandwidth n + 1
    yield "th2_n2", build_weighted_composition([0, 0, 1, 0, 0, 0, 0.25], [0.0, -1.0], 0.0, 98).matrix
    psi3 = np.zeros(13, dtype=complex)
    psi3[3], psi3[12] = 1.0, 0.25
    yield "th2_n3", build_weighted_composition(psi3, [0.0, lam3], 0.0, 192).matrix
    # repeated top eigenvalue: the boundary point may be any mix of e_0 and e_2
    yield "diagonal", np.diag([2.0, 1j, 2.0, -1.0 - 1j]).astype(complex)
    yield "zero", np.zeros((5, 5), dtype=complex)
    # E_13: the residue class {1} is a 1 x 1 zero block too narrow for the band solver
    yield "e13", np.eye(3, k=2, dtype=complex)
    for n in (1, 2, 5, 24):
        yield f"dense{n}", rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # constant targets (pro1): rank one, a centred disc and an ellipse
    yield "pro1_disc", build_weighted_composition([-0.4, 1.0], [0.4], 0.0, 128).matrix
    yield "pro1_ellipse", build_weighted_composition([1.0, 1.0], [0.3], 0.0, 128).matrix
    # phi(0) != 0: dense columns psi phi^n, numerically low rank
    yield "composition", _dense_composition(np.random.default_rng(7), 128)
    # positive semidefinite rank one: support 0 over half the circle
    u = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    yield "psd_rank_one", np.outer(u, u.conj())
    # Hermitian, full rank: the support is lambda_max at theta = 0 and -lambda_min at theta = pi
    X = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    yield "hermitian50", (X + X.conj().T) / 2.0


def _dense_composition(rng, n):
    """psi C_phi with psi of degree 3 and phi of degree 2, phi(0) != 0 and sum |phi_k| < 1."""
    psi = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    mags = rng.uniform(0.5, 1.0, 3)
    mags *= rng.uniform(0.6, 0.9) / mags.sum()
    return build_weighted_composition(psi, mags * np.exp(2j * np.pi * rng.uniform(size=3)), 0.0, n).matrix


def _random_band(rng, n, kd):
    """A complex n x n matrix with random entries on its 2 kd + 1 central diagonals."""
    return sum(np.diag(rng.standard_normal(n - abs(d)) + 1j * rng.standard_normal(n - abs(d)), d) for d in range(-kd, kd + 1))


def _blocks(A):
    """The residue-class blocks a sweep of A solves, each with its solver."""
    A_re, A_im = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2j
    classes, kd = _residue_classes(A)
    return [_Block(A, A_re, A_im, idx, kd) for idx in classes]


def _path(block):
    return "band" if block.band is not None else "reduced" if block.basis is not None else "dense"


def _assert_subnormal_sweeps(A):
    """2^-1030 A and 2^-1060 A, whose largest entries are subnormal, sweep to finite supports and points, the same supports in both sweeps."""
    for p in (-1030, -1060):
        rows = boundary_points(A * 2.0**p, 48)
        h = np.array([s for _, _, s in rows])
        assert np.all(np.isfinite(h)) and all(np.isfinite(point) for _, point, _ in rows), p
        assert np.array_equal(support_function(A * 2.0**p, _angle_grid(48)), h), p


def _theo2(n):
    """C_phi for phi(z) = 0.45 z + 0.45 z^2: phi(0) = 0, a dense lower-triangular wedge."""
    return build_weighted_composition([1.0], [0.0, 0.45, 0.45], 0.0, n).matrix


class TestSweepKernel:
    THETAS = 2.0 * np.pi * np.arange(48) / 48

    def test_dispatch_reads_the_zero_pattern(self):
        # (number of residue classes, half-bandwidth inside them)
        want = {"t3": (1, 1), "th1": (3, 1), "th2_n2": (2, 3), "th2_n3": (3, 4), "diagonal": (1, 0), "zero": (1, 0), "e13": (2, 1)}
        for name, A in _structured_matrices():
            classes, kd = _residue_classes(A)
            assert (len(classes), kd) == want.get(name, (1, A.shape[0] - 1)), name
            assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(A.shape[0]))

    def test_low_rank_blocks_are_solved_on_their_range(self):
        # dimension k of the reduced basis; None keeps the dense solver
        want = {"pro1_disc": 2, "pro1_ellipse": 2, "composition": 57, "psd_rank_one": 1}
        want.update(dense2=None, dense5=None, dense24=None, hermitian50=None)
        mats = {name: A for name, A in _structured_matrices() if name in want}
        # theo2: a dense lower-triangular wedge, reduced once N leaves room
        mats.update((f"theo2_{N}", _theo2(N)) for N in (16, 32, 64, 128))
        want.update(theo2_16=None, theo2_32=None, theo2_64=None, theo2_128=103)
        got = {name: _range_basis(A) for name, A in mats.items()}
        assert {name: None if r is None else r[:, :-1].shape[1] for name, r in got.items()} == want
        for name, (Q, z) in ((name, (r[:, :-1], r[:, -1])) for name, r in got.items() if r is not None):
            assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-13)
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-13 and np.linalg.norm(Q.conj().T @ z) <= 1e-13
            # Q is formed from the raw QR only for a kept block, with the bits of the full-mode Q
            full = scipy.linalg.qr(np.hstack([mats[name], mats[name].conj().T]), pivoting=True)[0]
            assert np.array_equal(np.column_stack([Q, z]), full[:, : Q.shape[1] + 1]), name

    def test_low_rank_supports_within_the_truncation_bound(self):
        rot = np.exp(-1j * self.THETAS)
        reduced = ("pro1_disc", "pro1_ellipse", "composition", "psd_rank_one")
        cases = [(name, A) for name, A in _structured_matrices() if name in reduced]
        for name, A in cases + [("theo2", _theo2(128))]:
            Q = _range_basis(A)[:, :-1]
            off = np.eye(A.shape[0]) - Q @ Q.conj().T
            # the larger of ||(I - P) A|| and ||A (I - P)||, each at most ||R_22||_F
            tau = max(np.linalg.norm(off @ A, 2), np.linalg.norm(A @ off, 2))
            want = np.array([np.linalg.eigvalsh((r * A + np.conj(r) * A.conj().T) / 2.0)[-1] for r in rot])
            err = np.max(np.abs(support_function(A, self.THETAS) - want))
            assert err <= 2.0 * tau + 1e-13 * np.linalg.norm(A, 2), name
        # u u* is the segment [0, |u|^2]: support 0 wherever cos(theta) < 0, at the point 0
        psd = dict(_structured_matrices())["psd_rank_one"]
        rows = boundary_points(psd, 64)
        assert all(s == 0.0 and abs(p) <= 1e-13 * np.trace(psd).real for th, p, s in rows if np.cos(th) < -1e-12)

    def test_vanishing_hermitian_part_is_solved_dense(self):
        # skew-Hermitian of rank 3 and norm 1.5e10: H(0) = 0 exactly, which a
        # reduced pair, off by about eps ||A||, would miss by more than the
        # residual tolerance; so the block keeps the dense solver
        X = np.random.default_rng(11).standard_normal((64, 3)) + 1j * np.random.default_rng(12).standard_normal((64, 3))
        A = 1e8j * (X @ X.conj().T)
        assert np.array_equal(A, -A.conj().T) and _range_basis(A) is None
        rows = boundary_points(A, 64)
        thetas = np.array([th for th, _, _ in rows])
        h = support_function(A, thetas)
        assert h[0] == 0.0 and np.array_equal(np.array([s for _, _, s in rows]), h)
        want = np.array([np.linalg.eigvalsh((r * A + np.conj(r) * A.conj().T) / 2.0)[-1] for r in np.exp(-1j * thetas)])
        norm = np.linalg.norm(A, 2)
        assert np.max(np.abs(h - want)) <= 1e-13 * norm
        assert all(abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * norm for th, p, s in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_rank_one_sweeps(self):
        rng = np.random.default_rng(17)
        u, v = (rng.standard_normal(64) + 1j * rng.standard_normal(64) for _ in range(2))
        A = 1e300 * np.outer(u / np.linalg.norm(u), (v / np.linalg.norm(v)).conj())
        assert _range_basis(A) is None  # its truncation error, about eps 1e300, keeps it dense
        rot = np.exp(-1j * self.THETAS)
        want = np.array([np.linalg.eigvalsh((r * A + np.conj(r) * A.conj().T) / 2.0)[-1] for r in rot])
        assert np.max(np.abs(support_function(A, self.THETAS) - want)) <= 1e-13 * 1e300
        for th, p, s in boundary_points(A, 64):
            assert abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * 1e300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_bands_sweep(self):
        # a band of entries near 1e200 is reduced at a power of two that takes
        # them below 1, in the block's own buffer; the vector step, on a
        # diagonal (kd = 0) as on a tridiagonal band, must still see H itself
        rng = np.random.default_rng(19)
        diagonal = np.diag(1e200 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        tridiagonal = 1e200 * (np.diag(rng.standard_normal(39), 1) + np.diag(rng.standard_normal(39), -1)).astype(complex)
        for A in (diagonal, tridiagonal):
            (block,) = _blocks(A)
            assert _path(block) == "band"
            rows = boundary_points(A, 64)
            want = _top_eigvals(A, _angle_grid(64))
            assert np.max(np.abs(np.array([s for _, _, s in rows]) - want)) <= 1e-13 * np.max(np.abs(want))
            for th, p, s in rows:
                assert abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * 1e200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dense_supports_scale_exactly_by_powers_of_two(self):
        # the reduction sees H(theta) times a power of two that brings its
        # entries below 1, so 2^p A has the supports of A times 2^p, bit for
        # bit, from entries near 1e-150 to entries near 1e301; a matrix of
        # subnormal entries, whose power of two would overflow, still gets
        # its supports to rounding; at 2^-1030 and 2^-1060 it sweeps to finite
        # supports and points, and so does a low-rank composition solved on
        # its range
        matrices = dict(_structured_matrices())
        for name in ("dense24", "hermitian50"):
            A = matrices[name]
            assert _path(_blocks(A)[0]) == "dense"
            h = support_function(A, self.THETAS)
            for p in (-500, -20, 20, 1000):
                assert np.array_equal(support_function(A * 2.0**p, self.THETAS), h * 2.0**p), (name, p)
            tiny = support_function(A * 2.0**-1030, self.THETAS)
            assert np.max(np.abs(np.ldexp(tiny, 1030) - h)) <= 1e-12 * np.max(np.abs(h)), name
            _assert_subnormal_sweeps(A)
        W = build_weighted_composition([1.0, 0.5 - 0.25j], [0.2 + 0.1j, 0.3, 0.2j], 0.5, 96).matrix
        assert [_path(block) for block in _blocks(W * 2.0**-1030)] == ["reduced"]
        _assert_subnormal_sweeps(W)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_supports_scale_exactly_by_powers_of_two(self):
        # a complex band with kd = 3 is reduced at the power of two of the
        # dense path, so 2^p A has the supports of A times 2^p, bit for bit;
        # at a subnormal scale the vector step must not overflow either
        A = _random_band(np.random.default_rng(29), 96, 3)
        (block,) = _blocks(A)
        assert _path(block) == "band" and block.band.shape[1] == 4
        h = support_function(A, self.THETAS)
        for p in (-500, -20, 20, 1000):
            assert np.array_equal(support_function(A * 2.0**p, self.THETAS), h * 2.0**p), p
        _assert_subnormal_sweeps(A)

    def test_band_reduction_refuses_another_signature(self, monkeypatch):
        # zhbtrd is called through a bare pointer, so a capsule whose C
        # prototype differs from the expected one must fail before any call
        monkeypatch.setattr(numrange, "_ZHBTRD_SIGNATURE", numrange._ZHBTRD_SIGNATURE.replace(b"int *)", b"long *)"))
        with pytest.raises(ImportError, match="signature"):
            numrange._zhbtrd.__wrapped__()

    def test_a_missing_extension_module_is_named(self):
        with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module") as raised:
            numrange._linalg.__wrapped__("_no_such_module")
        assert raised.value.name == "scipy.linalg._no_such_module"

    def test_build_never_loads_scipy_linalg(self, tmp_path):
        # every LAPACK and BLAS routine here is loaded on first use, from the
        # extension modules of numrange._linalg and never through the package
        # scipy.linalg; no command loads scipy.special, and build needs numpy alone
        config = tmp_path / "job.json"
        config.write_text('{"alpha": 0.0, "truncation": 16, "operator": {"toeplitz": {"terms": [[1, 0, 0.5, 0.0]]}}}')
        out = str(tmp_path / "out.txt")
        sweep = ["scipy.linalg", "scipy.special"]
        runs = [
            (["build", "--config", str(config), "--out", out], ["scipy"]),
            (["range", "--config", str(config), "--out", out], sweep),
            (["check", "c2_polygon", "--out", out], sweep),
            (["check", "zsq_diagonal", "--out", out], sweep),
            (["check", "mobius_mean_value", "--out", out], sweep),
        ]
        extensions = [f"scipy.linalg.{name}" for name in ("_flapack", "_fblas", "cython_lapack")]
        for argv, banned in runs:
            script = (
                "import sys; from bergrange import cli; "
                f"assert cli.main({argv!r}) == 0; "
                f"loaded = [m for m in sys.modules if m not in {extensions!r} and any((m + '.').startswith(b + '.') for b in {banned!r})]; "
                "assert not loaded, loaded"
            )
            subprocess.run([sys.executable, "-c", script], check=True, env=_src_env(), timeout=120)

    def test_sweeps_share_their_routines_with_scipy_linalg(self):
        # a sweep first, then the package's own import: every routine that the
        # sweep took from numrange._linalg is the object that scipy.linalg.lapack,
        # scipy.linalg.blas and scipy.linalg.cython_lapack export, and a second
        # sweep gives the same bits.  The three matrices take the band, dense
        # and reduced paths, each with boundary points
        script = """
import sys
import numpy as np
from bergrange import numrange

rng = np.random.default_rng(5)
band = np.triu(np.tril(rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80)), 2), -2)
dense = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
low_rank = rng.standard_normal((60, 3)) @ (rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60)))
def sweeps():
    return repr([numrange.boundary_points(A, 64) + [numrange.support_function(A, [0.1, 2.0, -1.0]).tolist()] for A in (band, dense, low_rank)])

used, real = set(), numrange._linalg
class Recorder:
    def __init__(self, name):
        self.name = name
    def __getattr__(self, attr):
        used.add((self.name, attr))
        return getattr(real(self.name), attr)
numrange._linalg = Recorder
first = sweeps()
numrange._linalg = real
assert "scipy.linalg" not in sys.modules
flapack = "zhetrd_lwork zhetrd dstebz dstein zunmqr zgbtrf zgbtrs zgeqp3 zungqr".split()
assert used == {("_flapack", r) for r in flapack} | {("_fblas", "zhbmv"), ("cython_lapack", "__pyx_capi__")}, sorted(used)
import scipy.linalg.blas
import scipy.linalg.lapack
from scipy.linalg import cython_lapack
exported = {"_flapack": scipy.linalg.lapack, "_fblas": scipy.linalg.blas, "cython_lapack": cython_lapack}
for name, attr in used:
    assert getattr(real(name), attr) is getattr(exported[name], attr), (name, attr)
assert real("cython_lapack").__pyx_capi__["zhbtrd"] is cython_lapack.__pyx_capi__["zhbtrd"]
assert sweeps() == first
"""
        subprocess.run([sys.executable, "-c", script], check=True, env=_src_env(), timeout=120)

    def test_block_checks_use_the_exact_scale_and_residual(self, monkeypatch):
        # every vector check a boundary sweep makes, at both ends of each pair
        # on the 90-angle grid: the banded and reduced blocks never form
        # H(theta), yet their scale must be max(1, max |H_ij|) bit for bit and
        # their H v that of the full block of H(theta) at end 0 and of
        # -H(theta) at end 1, so the residual is the one a dense check would see
        checks = []
        original = numrange._checked_pair
        monkeypatch.setattr(numrange, "_checked_pair", lambda *args: checks.append(args) or original(*args))
        paths = set()
        cases = list(_structured_matrices()) + [("theo2", _theo2(128))]
        # at 1e3 times the size the scale is not hidden by its floor of 1
        for name, A in cases + [(f"{name} x 1e3", 1e3 * A) for name, A in cases]:
            A_re, A_im = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2j
            for idx, block in zip(_residue_classes(A)[0], _blocks(A)):
                paths.add(_path(block))
                for th in 2.0 * np.pi * np.arange(90) / 90:
                    c, s = np.cos(th), np.sin(th)
                    _, point = block.ends(c, s, both=True)
                    for end, sign in ((0, 1.0), (1, -1.0)):
                        checks.clear()
                        point(end)
                        lam, v, Hv, scale = checks[-1]
                        H = sign * (c * A_re[np.ix_(idx, idx)] + s * A_im[np.ix_(idx, idx)])
                        assert v.size == idx.size and scale == max(1.0, float(np.max(np.abs(H)))), (name, end)
                        assert np.linalg.norm(Hv - H @ v) <= 1e-12 * scale, (name, end)
                        full = np.linalg.norm(H @ v - lam * v)
                        assert abs(np.linalg.norm(Hv - lam * v) - full) <= 1e-12 * scale, (name, end)
        assert paths == {"band", "reduced", "dense"}

    def test_each_point_is_the_form_of_its_checked_vector(self, monkeypatch):
        # the point an end returns is v* A v for the very vector v that its
        # residual check accepted (v = [Q, z] u on a reduced block), on every
        # path and at both ends of each pair
        checks = []
        original = numrange._checked_pair
        monkeypatch.setattr(numrange, "_checked_pair", lambda *args: checks.append(args) or original(*args))
        paths = set()
        for name, A in list(_structured_matrices()) + [("theo2", _theo2(128))]:
            tol = 1e-12 * max(1.0, float(np.max(np.abs(A))))
            for idx, block in zip(_residue_classes(A)[0], _blocks(A)):
                paths.add(_path(block))
                for th in 2.0 * np.pi * np.arange(30) / 30:
                    _, point = block.ends(np.cos(th), np.sin(th), both=True)
                    for end in (0, 1):
                        checks.clear()
                        p = point(end)
                        ((_, v, _, _),) = checks
                        assert abs(p - np.vdot(v, A[np.ix_(idx, idx)] @ v)) <= tol, (name, th, end)
        assert paths == {"band", "reduced", "dense"}

    def test_scale_entries_hold_the_largest_entry_at_every_angle(self):
        # random parts of scale 1e-5 and 1e5 drop entries; where lo = 0
        # everywhere (Hermitian, skew-Hermitian, a phase times Hermitian)
        # every entry is kept
        rng = np.random.default_rng(23)
        pairs = []
        for k in range(50):
            A = 10.0 ** (5 * (-1) ** k) * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
            pairs.append(((A + A.conj().T) / 2.0, (A - A.conj().T) / 2j, True))
        X = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        Y = X + X.conj().T
        pairs += [(Y, 0.0 * Y, False), (0.0 * Y, Y, False), (np.cos(0.3) * Y, np.sin(0.3) * Y, False)]
        thetas = 2.0 * np.pi * np.arange(360) / 360
        for A_re, A_im, drops in pairs:
            a, b = _scale_entries(A_re, A_im)
            assert (a.size < A_re.size) == drops
            for c, s in zip(np.cos(thetas), np.sin(thetas)):
                assert np.max(np.abs(c * a + s * b)) == np.max(np.abs(c * A_re + s * A_im))

    def test_perturbed_vectors_fail_the_check_on_every_path(self, monkeypatch):
        # a top eigenvector moved by 1e-6 on each path, and at either end of
        # an antipodal pair, must fail the check against the full-size block
        # of H(theta) or of H(theta + pi) = -H(theta)
        rng = np.random.default_rng(3)

        def nudge(v):
            w = v + 1e-6 * (rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size))
            return w / np.linalg.norm(w)

        band_vector, tridiagonal_vector = numrange._band_vector, numrange._Tridiagonal.vector

        def nudged_at(end):
            # the tridiagonal vector step, moved at one end of each pair only
            return lambda T, e: nudge(tridiagonal_vector(T, e)) if e == end else tridiagonal_vector(T, e)

        matrices = dict(_structured_matrices())
        for name, path, module, target, fake in (
            ("t3", "band", numrange, "_band_vector", lambda *args: nudge(band_vector(*args))),
            ("composition", "reduced", numrange._Tridiagonal, "vector", nudged_at(0)),
            ("dense24", "dense", numrange._Tridiagonal, "vector", nudged_at(0)),
            ("composition", "reduced", numrange._Tridiagonal, "vector", nudged_at(1)),
            ("dense24", "dense", numrange._Tridiagonal, "vector", nudged_at(1)),
        ):
            (block,) = _blocks(matrices[name])
            assert _path(block) == path
            with monkeypatch.context() as patch:
                patch.setattr(module, target, fake)
                with pytest.raises(NumericError, match="residual"):
                    boundary_points(matrices[name], 8)

    def test_reduced_points_match_the_top_eigenvector(self):
        # the reduced path takes the point as y* B y; on a clear top eigengap
        # that is v* A v for the top eigenvector of H(theta)
        matrices = dict(_structured_matrices())
        for name in ("composition", "pro1_ellipse"):
            A = matrices[name]
            norm = np.linalg.norm(A, 2)
            for th, p, _ in boundary_points(A, 90):
                r = np.exp(-1j * th)
                w, V = np.linalg.eigh((r * A + np.conj(r) * A.conj().T) / 2.0)
                assert w[-1] - w[-2] >= 1e-2 * norm, name
                assert abs(p - V[:, -1].conj() @ A @ V[:, -1]) <= 1e-12 * norm, name

    def test_supports_match_dense_eigvalsh(self):
        for name, A in _structured_matrices():
            got = support_function(A, self.THETAS)
            rot = np.exp(-1j * self.THETAS)
            want = np.array([np.linalg.eigvalsh((r * A + np.conj(r) * A.conj().T) / 2.0)[-1] for r in rot])
            assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), initial=1.0)), name

    def test_boundary_rows_lie_on_their_support_lines(self):
        for name, A in _structured_matrices():
            for th, p, s in boundary_points(A, 90):
                assert abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * max(1.0, abs(s)), name

    def test_boundary_supports_equal_support_function(self):
        for name, A in _structured_matrices():
            rows = boundary_points(A, 90)
            thetas = np.array([th for th, _, _ in rows])
            assert np.array_equal(np.array([s for _, _, s in rows]), support_function(A, thetas)), name

    def test_non_finite_entries_raise(self):
        for name, A in _structured_matrices():
            B = A.copy()
            B[-1, 0] = np.nan if name == "zero" else np.inf
            with pytest.raises(NumericError):
                support_function(B, self.THETAS)
            with pytest.raises(NumericError):
                boundary_points(B, 8)

    def test_point_cloud_support_matches_its_hull(self):
        rng = np.random.default_rng(13)
        cloud = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        want = support_of(HullPolygon(convex_hull(cloud)).vertices, GRID)
        assert np.max(np.abs(support_of(cloud, GRID) - want)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_angles_raise(self):
        A = dict(_structured_matrices())["dense5"]
        shapes = (np.array([1j, 2.0]), HullPolygon(convex_hull([0j, 1.0, 1j])).vertices, DiscSpec(0j, 1.0), EllipseSpec(0j, 1.0, 0.5))
        for bad in ([np.inf], [0.0, np.nan], -np.inf):
            with pytest.raises(UsageError):
                support_function(A, bad)
            for shape in shapes:
                with pytest.raises(UsageError):
                    support_of(shape, bad)
            for shape in shapes[2:]:
                with pytest.raises(UsageError):
                    shape.support(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_hermitian_part_raises(self):
        # finite entries whose Hermitian part overflows to infinity, on a
        # dense, a tridiagonal and a diagonal zero pattern
        tridiagonal = np.diag(np.full(31, 1e308), 1) + np.diag(np.full(31, 1e308), -1)
        for A in (np.full((2, 2), 1e308), tridiagonal, np.diag(np.full(4, 1e308))):
            A = A.astype(complex)
            with pytest.raises(NumericError):
                support_function(A, GRID)
            with pytest.raises(NumericError):
                boundary_points(A, 8)


@pytest.fixture
def reductions(monkeypatch):
    """A list that grows by one entry per tridiagonal reduction a sweep makes."""
    made, init = [], numrange._Tridiagonal.__init__
    monkeypatch.setattr(numrange._Tridiagonal, "__init__", lambda T, *args: made.append(1) or init(T, *args))
    return made


def _top_eigvals(A, thetas):
    rot = np.exp(-1j * np.asarray(thetas))
    return np.array([np.linalg.eigvalsh((r * A + np.conj(r) * A.conj().T) / 2.0)[-1] for r in rot])


class TestAnglePairs:
    """The sweep solves theta and theta + pi with one reduction, and mirrors -theta from theta for a real matrix."""

    @staticmethod
    def _real_matrices():
        matrices = dict(_structured_matrices())
        # one real matrix per path: a Toeplitz band, a rank-two composition, the theo2 wedge
        return {"band": matrices["t3"], "reduced": matrices["pro1_ellipse"], "dense": _theo2(64)}

    def test_both_ends_of_each_pair_match_eigvalsh(self, reductions):
        matrices = dict(_structured_matrices())
        for name in ("dense24", "hermitian50", "composition"):
            A = matrices[name]
            assert A.imag.any()
            reductions.clear()
            thetas = _angle_grid(64)
            h = support_function(A, thetas)
            assert len(reductions) == 32, name  # one reduction per pair, no mirror
            want = _top_eigvals(A, thetas)
            assert np.max(np.abs(h - want)) <= 1e-13 * np.max(np.abs(want)), name
            for th, p, s in boundary_points(A, 64):
                assert abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * max(1.0, abs(s)), name

    def test_complex_bands_pair_with_one_reduction(self, reductions):
        # one zhbtrd reduction per pair, and both ends bisected from it: each
        # is zhbevx's top eigenvalue of H(theta) or -H(theta), bit for bit
        thetas = _angle_grid(64)
        for kd in (1, 3, 4):
            A = _random_band(np.random.default_rng(kd), 80, kd)
            (block,) = _blocks(A)
            assert _path(block) == "band" and block.band.shape[1] == kd + 1 and A.imag.any()
            reductions.clear()
            h = support_function(A, thetas)
            assert len(reductions) == 32, kd
            for j in range(32):
                ab = np.cos(thetas[j]) * block.band[0] + np.sin(thetas[j]) * block.band[1]
                for k, H in ((j, ab), (j + 32, -ab)):
                    w, _, m, _, info = scipy.linalg.lapack.zhbevx(H, 0.0, 0.0, 80, 80, compute_v=0, range=2, lower=1)
                    assert info == 0 and m == 1 and h[k] == w[0], (kd, k)

    def test_diagonal_ends_are_read_without_bisection(self, monkeypatch):
        # a complex diagonal is a kd = 0 band, a tridiagonal form with no
        # off-diagonal entry: its ends are the largest and smallest of
        # c Re d_j + s Im d_j, read with no dstebz call, bit for bit
        calls = []
        flapack = numrange._linalg("_flapack")  # the module that the sweep calls
        original = flapack.dstebz
        monkeypatch.setattr(flapack, "dstebz", lambda *args: calls.append(args) or original(*args))
        rng = np.random.default_rng(43)
        d = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        thetas = _angle_grid(360)
        h = support_function(np.diag(d), thetas)
        rows = boundary_points(np.diag(d), 360)
        assert not calls
        for j in range(180):
            H = np.cos(thetas[j]) * d.real + np.sin(thetas[j]) * d.imag
            assert h[j] == np.max(H) and h[j + 180] == -np.min(H), j
        assert np.array_equal(np.array([s for _, _, s in rows]), h)

    def test_real_matrices_mirror_exactly(self, reductions):
        for path, A in self._real_matrices().items():
            (block,) = _blocks(A)
            assert _path(block) == path and not A.imag.any()
            for K in (360, 90):
                reductions.clear()
                rows = boundary_points(A, K)
                # one reduction per angle in [0, pi/2] on every path: 91 of 360 and 23 of 90
                assert len(reductions) == K // 4 + 1, (path, K)
                h = np.array([s for _, _, s in rows])
                points = np.array([p for _, p, _ in rows])
                j = np.arange(1, K)
                assert np.array_equal(h[K - j], h[j]) and np.array_equal(points[K - j], np.conj(points[j])), (path, K)
                want = _top_eigvals(A, _angle_grid(K))
                assert np.max(np.abs(h - want)) <= 1e-13 * np.max(np.abs(want)), (path, K)

    def test_a_tiny_imaginary_part_is_not_mirrored(self, reductions):
        A = _theo2(64).copy()
        A[5, 3] += 1e-300j
        rows = boundary_points(A, 360)
        assert len(reductions) == 180  # pairs only
        h = np.array([s for _, _, s in rows])
        assert np.max(np.abs(h - support_function(_theo2(64), _angle_grid(360)))) <= 1e-13 * np.max(np.abs(h))

    def test_unpaired_angles_agree_with_the_even_grid(self, reductions):
        matrices = dict(_structured_matrices())
        cases = dict(self._real_matrices(), dense24=matrices["dense24"], composition=matrices["composition"], th1=matrices["th1"])
        rng = np.random.default_rng(5)
        even = _angle_grid(360)
        for name, A in cases.items():
            h = support_function(A, even)
            scale = np.max(np.abs(h))
            # odd K = 45 shares every 8th angle of the even grid
            reductions.clear()
            odd = support_function(A, _angle_grid(45))
            assert len(reductions) == 45 * len(_blocks(A)), name  # one reduction per angle and block
            assert np.max(np.abs(odd - h[::8])) <= 1e-13 * scale, name
            # an arbitrary array: the even grid shuffled, a reversed grid and a lone angle
            order = rng.permutation(360)
            assert np.max(np.abs(support_function(A, even[order]) - h[order])) <= 1e-13 * scale, name
            assert np.max(np.abs(support_function(A, even[::-1]) - h[::-1])) <= 1e-13 * scale, name
            assert abs(support_function(A, even[7])[0] - h[7]) <= 1e-13 * scale, name
            rows = boundary_points(A, 45)
            assert np.array_equal(np.array([s for _, _, s in rows]), odd), name
            paired = boundary_points(A, 360)[::8]
            assert max(abs(p - q) for (_, p, _), (_, q, _) in zip(rows, paired)) <= 1e-9 * scale, name

    def test_rank_one_reduced_block_at_both_ends(self):
        # u u* is the segment [0, |u|^2]; on its k = 1 basis h_B < 0 wherever
        # cos(theta) < 0, and there the support is 0 at z, off the basis
        rng = np.random.default_rng(41)
        for u in (rng.standard_normal(48) + 1j * rng.standard_normal(48), rng.standard_normal(48)):
            A = np.outer(u, u.conj())
            (block,) = _blocks(A)
            assert _path(block) == "reduced" and block.basis.shape[1] == 2
            top = np.vdot(u, u).real
            rows = boundary_points(A, 64)
            for th, p, s in rows:
                if np.cos(th) > 1e-12:
                    assert abs(s - np.cos(th) * top) <= 1e-13 * top and abs(p - top) <= 1e-12 * top
                elif np.cos(th) < -1e-12:
                    assert s == 0.0 and abs(p) <= 1e-13 * top
            assert np.array_equal(support_function(A, _angle_grid(64)), np.array([s for _, _, s in rows]))

    def test_boundary_supports_equal_support_function_on_every_grid(self):
        matrices = dict(_structured_matrices())
        cases = dict(self._real_matrices(), dense24=matrices["dense24"], composition=matrices["composition"], th1=matrices["th1"])
        assert {_path(_blocks(A)[0]) for A in cases.values()} == {"band", "reduced", "dense"}
        for name, A in cases.items():
            for K in (90, 91, 360, 359):
                rows = boundary_points(A, K)
                thetas = np.array([th for th, _, _ in rows])
                assert np.array_equal(np.array([s for _, _, s in rows]), support_function(A, thetas)), (name, K)


class TestSmallMatrices:
    def test_nilpotent_2x2_is_half_disc(self):
        # [[0, 1], [0, 0]] has numerical range the closed disc of radius 1/2
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        h = support_function(A, GRID)
        assert np.max(np.abs(h - 0.5)) < 1e-12
        for _, p, _ in boundary_points(A, 64):
            assert abs(abs(p) - 0.5) < 1e-10

    def test_normal_matrix_gives_eigenvalue_polygon(self):
        A = np.diag([1.0, 1j, -1.0, -1j])
        hull = numerical_range_hull(A, 360)
        assert hull.vertices.size == 4
        got = sorted((round(v.real, 9), round(v.imag, 9)) for v in hull.vertices)
        want = sorted([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        assert got == want

    def test_square_vs_circumscribed_polygon_hausdorff(self):
        # hull of diag(1, i, -1, -i) against the regular 360-gon in the unit
        # circle: farthest point is the 45-degree vertex, at distance
        # 1 - 1/sqrt(2) from the square; for convex sets the Hausdorff distance
        # is the sup-norm of the support difference
        square = numerical_range_hull(np.diag([1.0, 1j, -1.0, -1j]), 360)
        gon = HullPolygon(convex_hull(np.exp(1j * _angle_grid(360))))
        g = _angle_grid(3600)
        d = np.max(np.abs(support_of(square.vertices, g) - support_of(gon.vertices, g)))
        assert d == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=2e-3)

    def test_2x2_oracle_support_match(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ell = ellipse_from_2x2(A)
            got = support_function(A, GRID)
            want = ell.support(GRID)
            assert np.max(np.abs(got - want)) < 1e-7

    def test_ellipse_frozen_case(self):
        # [[0, 1], [0.25, 0]]: eigenvalues +-1/2, minor axis
        # sqrt(1 + 1/16 - 1/4 - 1/4) = sqrt(9/16) = 3/4
        ell = ellipse_from_2x2(np.array([[0.0, 1.0], [0.25, 0.0]]))
        foci = sorted([ell.focus1, ell.focus2], key=lambda z: z.real)
        assert abs(foci[0] + 0.5) < 1e-12 and abs(foci[1] - 0.5) < 1e-12
        assert ell.minor_axis == pytest.approx(0.75, abs=1e-12)
        assert ell.major_axis == pytest.approx(1.25, abs=1e-12)


class TestHullGeometry:
    def test_hull_of_random_cloud(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        hull = HullPolygon(convex_hull(pts))
        # every input point is inside the hull
        for p in pts[::37]:
            assert hull.signed_distance(complex(p)) >= -1e-9
        # vertices are a subset of the input set
        as_set = {(round(p.real, 9), round(p.imag, 9)) for p in pts}
        for v in hull.vertices:
            assert (round(v.real, 9), round(v.imag, 9)) in as_set

    def test_degenerate_hulls(self):
        one = convex_hull([1 + 1j, 1 + 1j, 1 + 1j])
        assert one.size == 1
        seg = convex_hull([0j, 1 + 0j, 0.5 + 0j, 0.25 + 0j])
        assert seg.size == 2
        assert {seg[0], seg[1]} == {0j, 1 + 0j}

    def test_regular_polygon_with_points_on_its_edges(self):
        # along a near-vertical edge, noise below the merge grid must not
        # reorder the points and so drop a vertex or keep an edge point
        t = np.array([0.25, 0.5, 0.75])
        wrong = []
        for n in range(3, 60):
            for phase in (0.0, 0.1, 1.0, np.pi / n):
                v = np.exp(1j * (phase + 2.0 * np.pi * np.arange(n) / n))
                edges = (v[:, None] * (1 - t) + np.roll(v, -1)[:, None] * t).ravel()
                hull = convex_hull(np.concatenate([v, edges]))
                dev = max(float(np.min(np.abs(hull - e))) for e in v)
                if hull.size != n or dev > 1e-12:
                    wrong.append((n, phase, hull.size, dev))
        assert not wrong

    def test_signed_distance(self):
        square = HullPolygon(convex_hull([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))
        assert square.signed_distance(0j) == pytest.approx(1.0, abs=1e-12)
        assert square.signed_distance(2 + 0j) == pytest.approx(-1.0, abs=1e-12)
        assert square.signed_distance(0.999 + 0.999j) > 0.0
        assert square.signed_distance(1.001 + 0j) < 0.0

    @pytest.mark.filterwarnings("error")
    def test_signed_distance_of_a_non_finite_point_raises(self):
        # the point is read as a point cloud of one, like the vertices
        square = HullPolygon(convex_hull([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))
        for q in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.inf, np.nan)):
            with pytest.raises(NumericError, match="non-finite"):
                square.signed_distance(q)
        with pytest.raises(UsageError, match="one point"):
            square.signed_distance([0j, 2j])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hulls_and_distances_scale_exactly_by_powers_of_two(self):
        # the cross products and distances are taken on coordinates scaled
        # below 1 by a power of two, so a cloud near the overflow threshold
        # keeps the hull and the distances of the cloud at scale 1
        rng = np.random.default_rng(47)
        square = np.array([1.5, 1.5j, -1.5, -1.5j, 0.25 + 0.5j])  # and a point inside
        clouds = [square, np.concatenate([square, rng.standard_normal(50) + 1j * rng.standard_normal(50)])]
        queries = [0.0, 0.3 - 0.2j, 2.0 + 1.0j, -3.0j]
        # below 1 as well, down to subnormal coordinates for the square, whose
        # coordinates 2^p keeps exact
        for P, small in zip(clouds, [(-600, -1000, -1060), (-600, -1000)]):
            hull = convex_hull(P)
            dist = [HullPolygon(hull).signed_distance(q) for q in queries]
            for p in (0, 600, 1000) + small:
                scaled = convex_hull(2.0**p * P)
                assert np.array_equal(scaled, 2.0**p * hull), (P.size, p)
                assert [HullPolygon(scaled).signed_distance(2.0**p * q) for q in queries] == [2.0**p * x for x in dist], (P.size, p)
        D = np.diag([1.0, 1j, -1.0, -1j])
        square_range = numerical_range_hull(D, 64)
        for p in (0, 600, 1000):
            scaled = numerical_range_hull(2.0**p * D, 64)
            assert np.array_equal(scaled.vertices, 2.0**p * square_range.vertices) and scaled.vertices.size == 4, p
            assert scaled.signed_distance(0.0) == 2.0**p * square_range.signed_distance(0.0), p

    def test_small_clouds_keep_their_vertices(self):
        # the merge grid and the tolerances are relative to the largest
        # modulus, not to max(1, largest modulus)
        square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        five = np.array([0j, 1, 1j, 1 + 1j, (1 + 1j) / 2])
        for s in (1e-9, 1e-13):
            hull = HullPolygon(convex_hull(s * square))
            assert hull.vertices.size == 4 and hull.signed_distance(0.0) == s, s
        for s in (1e-10, 1e-13):
            hull = convex_hull(s * five)
            assert sorted(hull.tolist(), key=lambda z: (z.real, z.imag)) == [0j, s * 1j, s + 0j, s * (1 + 1j)], s

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clouds_near_the_float_limit_keep_their_hulls(self):
        # every coordinate is finite, but the corners' moduli are not: the
        # frame comes from the largest |Re| or |Im|, never from a modulus
        s = 1.5e308
        cloud = np.array([complex(s, s), complex(s, -s), complex(-s, s), complex(-s, -s), complex(0.0, 0.1 * s)])
        hull = HullPolygon(convex_hull(cloud))
        assert hull.vertices.size == 4
        d = hull.signed_distance(0.0)
        assert 0.0 < d < np.inf and d == s

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_power_of_two_scaling_is_exact_over_the_float_range(self, data):
        # coordinates sign * m * 2^k with 1 <= m < 2 and k anywhere from -1022,
        # the smallest normal exponent, to 1000, and 2^p keeping each nonzero
        # coordinate normal and below 2^1001, so that 2^p P is exact and no
        # distance overflows
        base = data.draw(st.integers(-1022, 1000))
        exponents = st.integers(base, data.draw(st.integers(base, 1000)))
        coordinate = st.one_of(
            st.just(0.0),
            st.builds(lambda sign, m, k: sign * math.ldexp(m, k), st.sampled_from([-1.0, 1.0]), st.floats(1.0, 2.0, exclude_max=True), exponents),
        )
        P = np.array(data.draw(st.lists(st.builds(complex, coordinate, coordinate), min_size=1, max_size=24)))
        k = [math.frexp(x)[1] - 1 for x in np.concatenate([P.real, P.imag]).tolist() if x]
        p = data.draw(st.integers(-1022 - min(k, default=0), 1000 - max(k, default=0)))
        hull, scaled = convex_hull(P), convex_hull(np.ldexp(P.real, p) + 1j * np.ldexp(P.imag, p))
        assert np.array_equal(scaled, np.ldexp(hull.real, p) + 1j * np.ldexp(hull.imag, p))
        assert all(v in P for v in hull)
        tiny = np.finfo(float).tiny
        for q in (0j, *P):
            d = HullPolygon(hull).signed_distance(q)
            d_scaled = HullPolygon(scaled).signed_distance(complex(math.ldexp(q.real, p), math.ldexp(q.imag, p)))
            # a distance below the normal range is rounded at that scale, not scaled
            if all(x == 0.0 or abs(x) >= tiny for x in (d, d_scaled)):
                assert d_scaled == math.ldexp(d, p), (q, p)

    def test_support_of_dispatch(self):
        hull = HullPolygon(convex_hull([0j, 1 + 0j, 1j]))
        disc = DiscSpec(0.5, 0.5)
        th = np.array([0.0, np.pi / 2.0])
        assert np.allclose(support_of(hull.vertices, th), [1.0, 1.0])
        assert np.allclose(support_of(disc, th), [1.0, 0.5])
        assert np.allclose(support_of(np.array([1j, 2j, -1j]), th), [0.0, 2.0])
        # a matrix is swept by support_function, which the error names
        with pytest.raises(UsageError, match="support_function"):
            support_of(np.eye(2), th)

    def test_point_cloud_must_be_nonempty_and_finite(self):
        with pytest.raises(UsageError):
            support_of(np.array([], dtype=complex), GRID)
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(NumericError):
                support_of(np.array([1j, bad, -1j]), GRID)

    def test_shapes_reject_non_finite_fields(self):
        for fields in ((0j, np.nan), (0j, np.inf), (complex(np.nan, 0.0), 1.0)):
            with pytest.raises(UsageError):
                DiscSpec(*fields)
        for fields in ((0j, 1 + 0j, np.nan), (0j, complex(0.0, np.inf), 1.0), (np.nan, 1 + 0j, 0.0)):
            with pytest.raises(UsageError):
                EllipseSpec(*fields)


class TestCheckComparison:
    """``checks._compare``, which decides every comparison of a range with a closed-form set."""

    def test_margin_and_gap_are_the_grid_extremes(self):
        # a banded, a reduced and a dense sweep against a disc, an ellipse and a point cloud
        matrices = dict(_structured_matrices())
        g = _angle_grid(360)
        shapes = (DiscSpec(0.1j, 0.2), EllipseSpec(-0.3, 0.2 + 0.1j, 0.25), np.array([0j, 0.5 - 0.25j, 0.1 + 0.6j]))
        for name in ("t3", "composition", "dense24"):
            h = support_function(matrices[name], g)
            for shape in shapes:
                d = h - support_of(shape, g)
                assert _compare(matrices[name], shape, 360) == (float(np.min(d)), float(np.max(np.abs(d)))), (name, shape)

    def test_needs_an_integer_grid(self):
        for bad in (3.5, 2, 720.0, "720"):
            with pytest.raises(UsageError):
                _compare(np.eye(2), DiscSpec(0j, 0.5), bad)


class TestEllipseSpec:
    def test_degenerate_segment_support(self):
        seg = EllipseSpec(0j, 2 + 0j, 0.0)
        th = np.array([0.0, np.pi, np.pi / 2.0])
        assert np.allclose(seg.support(th), [2.0, 0.0, 0.0], atol=1e-12)

    def test_boundary_points_satisfy_focal_condition(self):
        # the ellipse with these axes, centre and major direction is the set
        # |p - f1| + |p - f2| = major, and its support is the one EllipseSpec gives
        ell = EllipseSpec(-1 + 0.5j, 1 + 1j, np.sqrt(0.5))
        phi = _angle_grid(4096)
        tilt = np.exp(1j * np.angle(ell.focus2 - ell.focus1))
        pts = ell.center + tilt * (ell.major_axis * np.cos(phi) + 1j * ell.minor_axis * np.sin(phi)) / 2.0
        total = np.abs(pts - ell.focus1) + np.abs(pts - ell.focus2)
        assert np.max(np.abs(total - ell.major_axis)) < 1e-12
        # the inscribed 4096-gon sags below the ellipse by at most 1e-6 here
        sag = ell.support(GRID) - support_of(pts, GRID)
        assert np.all(sag >= -1e-12) and np.max(sag) < 1e-6


class TestStructuralInvariants:
    def test_truncation_monotone_by_support(self):
        # leading compressions nest, so supports are monotone in N exactly
        psi = [0.0, 1.0, 0.3]
        small = build_multiplication(psi, 0.0, 48)
        big = build_multiplication(psi, 0.0, 80)
        assert np.array_equal(big.matrix[:48, :48], small.matrix)
        h_small = support_function(small, GRID)
        h_big = support_function(big, GRID)
        assert np.max(h_small - h_big) <= 1e-12

    def test_bergman_shift_support_approaches_one(self):
        M = build_multiplication([0.0, 1.0], 0.0, 200)
        h0 = support_function(M, [0.0])[0]
        assert 0.98 <= h0 < 1.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        B = Q @ A @ Q.conj().T
        assert np.max(np.abs(support_function(A, GRID) - support_function(B, GRID))) < 1e-8

    def test_affine_equivariance(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        c, d = 0.7, 0.3 - 0.2j
        B = c * A + d * np.eye(8)
        hull_a = numerical_range_hull(A, 256)
        hull_b = numerical_range_hull(B, 256)
        moved = HullPolygon(convex_hull(c * hull_a.vertices + d))
        # the sup-norm of the support difference is the Hausdorff distance of convex sets
        g = _angle_grid(4096)
        assert np.max(np.abs(support_of(hull_b.vertices, g) - support_of(moved.vertices, g))) < 1e-9


class TestImageHull:
    def test_polynomial_image_hull(self):
        f = partial(series_eval, [0.5, 0.5])  # 0.5 + 0.5 z: image of the disk is a disc
        hull = HullPolygon(convex_hull(_image_samples(f, 720)))
        disc = DiscSpec(0.5, 0.5)
        th = 2.0 * np.pi * np.arange(720) / 720
        assert np.max(np.abs(support_of(hull.vertices, th) - disc.support(th))) < 2e-3

    def test_unit_circle_samples_hold_every_support_of_the_disk_image(self):
        # Re(e^{-i theta} f) is harmonic for these symbols, so by the maximum
        # principle the inner circles of a 33-circle cloud never hold a support;
        # the cloud, with radii 0 .. 1, is the reference built here
        rng = np.random.default_rng(2024)
        symbols = []
        for i in range(200):
            degree = int(rng.integers(1, 13))
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            symbols.append((partial(series_eval, coeffs), 512 if i % 2 else 1024))
        for a in (0.0, 0.3, 0.5, 0.9, 1.0):
            symbols.append((BiPolySymbol(((1, 0, 1.0), (0, 1, a))), 512))
        th = _angle_grid(360)
        for f, n in symbols:
            disk = np.linspace(0.0, 1.0, 33)[:, None] * np.exp(1j * _angle_grid(n))[None, :]
            on_circle = support_of(_image_samples(f, n), th)
            over_disk = support_of(np.ravel(f(disk)), th)
            assert np.array_equal(on_circle, over_disk), f

    def test_boundary_only_sampling(self):
        f = partial(series_eval, [0.0, 1.0])
        hull = HullPolygon(convex_hull(_image_samples(f, 1024)))
        # hull of the unit circle samples: support 1 up to polygon sag
        th = np.array([0.0, 1.0, 2.0])
        assert np.max(np.abs(support_of(hull.vertices, th) - 1.0)) < 1e-4
