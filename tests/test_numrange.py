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
from bergrange.checks import _gap, _margin
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
    # graded blocks, exact discs: the symbol 0.5 + 0.5 z on a band, the
    # weight z over phi = z^2 (entries n -> 2n + 1, a forest) on its range,
    # and a complex forest about a complex centre, dense
    yield "disc_band", build_multiplication([0.5, 0.5], 0.0, 64).matrix
    yield "disc_reduced", build_weighted_composition([0.0, 1.0], [0.0, 0.0, 1.0], 0.0, 64).matrix
    yield "disc_dense", _forest(rng, 40, 0.3 - 0.2j)


def _dense_composition(rng, n):
    """psi C_phi with psi of degree 3 and phi of degree 2, phi(0) != 0 and sum |phi_k| < 1."""
    psi = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    mags = rng.uniform(0.5, 1.0, 3)
    mags *= rng.uniform(0.6, 0.9) / mags.sum()
    return build_weighted_composition(psi, mags * np.exp(2j * np.pi * rng.uniform(size=3)), 0.0, n).matrix


def _forest(rng, n, center, real=False):
    """center I plus random entries at (2k + 1, k), index links that form a forest, so that f(2k + 1) = f(k) + 1 labels them."""
    k = np.arange(n // 2)
    A = center * np.eye(n, dtype=complex)
    A[2 * k + 1, k] = rng.standard_normal(k.size) + (0.0 if real else 1j * rng.standard_normal(k.size))
    return A


def _random_band(rng, n, kd):
    """A complex n x n matrix with random entries on its 2 kd + 1 central diagonals."""
    return sum(np.diag(rng.standard_normal(n - abs(d)) + 1j * rng.standard_normal(n - abs(d)), d) for d in range(-kd, kd + 1))


def _blocks(A):
    """The residue-class blocks a sweep of A solves, each with its solver."""
    A_re, A_im = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2j
    classes, kd, _ = _residue_classes(A)
    return [_Block(A, A_re, A_im, idx, kd) for idx in classes]


def _pairing(A, thetas):
    """(pairs, copies, fold) of ``numrange._angle_pairs`` as a sweep of A at ``thetas`` takes them, each pair a tuple (j, k) with k None where j is unpaired.

    A sweep of closed blocks alone takes no copies.
    """
    order = 1 if all(block.closed for block in _blocks(A)) else _residue_classes(A)[2]
    (first, second), copies, fold = numrange._angle_pairs(thetas, not A.imag.any(), order)
    return [(j, None if k < 0 else k) for j, k in zip(first.tolist(), second.tolist())], copies, fold


def _path(block):
    """The solver of a block: "diagonal" for a kd = 0 block, answered in closed form, else the form its ends are reduced from."""
    if block.closed and block.labels is None:
        return "diagonal"
    return "band" if block.band is not None else "reduced" if block.basis is not None else "dense"


def _drive(block, thetas):
    """The points that a sweep takes from ``block`` at both ends of every angle, shape (2, angles).

    A closed block answers from ``closed_ends``; any other solves each angle
    in ``ends``, takes the vector of both ends, and turns them all into
    points in one ``points`` call.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    if block.closed:
        return block.closed_ends(c, s)[1]()
    taken = []
    for cj, sj in zip(c, s):
        supports, vector = block.ends(cj, sj, True)
        taken += [(end, cj, sj, supports[end], vector(end)) for end in (0, 1)]
    return block.points(taken).reshape(-1, 2).T


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
        # (number of residue classes, half-bandwidth inside them, order of
        # the rotation symmetry): t3's offsets +-1 and E_13's -2 make them
        # 2-fold, th2_n's offsets n and n (n + 1) n-fold; a nonzero diagonal
        # entry leaves 1, and the zero matrix, with no entry, is 0
        want = {"t3": (1, 1, 2), "th1": (3, 1, 1), "th2_n2": (2, 3, 2), "th2_n3": (3, 4, 3), "diagonal": (1, 0, 1), "zero": (1, 0, 0)}
        want.update(e13=(2, 1, 2), disc_band=(1, 1, 1), disc_reduced=(1, 32, 1), disc_dense=(1, 20, 1))
        for name, A in _structured_matrices():
            classes, kd, order = _residue_classes(A)
            assert (len(classes), kd, order) == want.get(name, (1, A.shape[0] - 1, 1)), name
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
        # them below 1, in the block's own buffer, and its vector step must
        # still see H itself; a diagonal (kd = 0) of such entries is answered
        # in closed form at the same power of two
        rng = np.random.default_rng(19)
        diagonal = np.diag(1e200 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        tridiagonal = 1e200 * (np.diag(rng.standard_normal(39), 1) + np.diag(rng.standard_normal(39), -1)).astype(complex)
        for A, path in ((diagonal, "diagonal"), (tridiagonal, "band")):
            (block,) = _blocks(A)
            assert _path(block) == path
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
        # extension modules of numrange._linalg, which leaves none of them in
        # sys.modules, and never through the package scipy.linalg; no command
        # loads scipy.special, and build needs numpy alone
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
        for argv, banned in runs:
            script = (
                "import sys; from bergrange import cli; "
                f"assert cli.main({argv!r}) == 0; "
                f"loaded = [m for m in sys.modules if any((m + '.').startswith(b + '.') for b in {banned!r})]; "
                "assert not loaded, loaded"
            )
            subprocess.run([sys.executable, "-c", script], check=True, env=_src_env(), timeout=120)

    def test_sweeps_share_their_routines_with_scipy_linalg(self):
        # a sweep first, then the package's own import: every routine that the
        # sweep took from numrange._linalg is the object that scipy.linalg.lapack,
        # scipy.linalg.cython_lapack and scipy.linalg.cython_blas export, and a
        # second sweep gives the same bits.  The three matrices take the band,
        # dense and reduced paths, each with boundary points
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
assert used == {("_flapack", r) for r in flapack} | {("cython_lapack", "__pyx_capi__"), ("cython_blas", "__pyx_capi__")}, sorted(used)
import scipy.linalg.lapack
from scipy.linalg import cython_blas, cython_lapack
exported = {"_flapack": scipy.linalg.lapack, "cython_lapack": cython_lapack, "cython_blas": cython_blas}
for name, attr in used:
    assert getattr(real(name), attr) is getattr(exported[name], attr), (name, attr)
assert real("cython_lapack").__pyx_capi__["zhbtrd"] is cython_lapack.__pyx_capi__["zhbtrd"]
assert real("cython_blas").__pyx_capi__["zgemm"] is cython_blas.__pyx_capi__["zgemm"]
assert sweeps() == first
"""
        subprocess.run([sys.executable, "-c", script], check=True, env=_src_env(), timeout=120)

    def test_sweeps_leave_the_callers_scipy_linalg_imports_alone(self):
        # a sweep leaves no scipy.linalg module in sys.modules, so the caller's
        # plain import of an extension module binds it on the package and
        # exports the sweep's routines; a module that the caller imported
        # first is the one that the sweep takes
        after = """
import sys
import numpy as np
from bergrange import numrange
band = np.diag(np.ones(39), 1) + 0.5j * np.diag(np.ones(39), -1)
numrange.boundary_points(band, 64)
numrange.boundary_points(np.arange(16.0).reshape(4, 4) + 1j, 64)
assert not [m for m in sys.modules if (m + ".").startswith("scipy.linalg.")]
import scipy.linalg.cython_lapack
import scipy.linalg.cython_blas
import scipy.linalg._flapack
assert scipy.linalg.cython_lapack.__pyx_capi__["zhbtrd"] is numrange._linalg("cython_lapack").__pyx_capi__["zhbtrd"]
assert scipy.linalg.cython_blas.__pyx_capi__["zgemm"] is numrange._linalg("cython_blas").__pyx_capi__["zgemm"]
assert scipy.linalg._flapack.dstebz is numrange._linalg("_flapack").dstebz
"""
        before = """
import sys
import numpy as np
import scipy.linalg.lapack
from scipy.linalg import cython_lapack
from bergrange import numrange
numrange.boundary_points(np.diag(np.ones(39), 1) + 0.5j * np.diag(np.ones(39), -1), 64)
assert numrange._linalg("_flapack") is sys.modules["scipy.linalg._flapack"]
assert numrange._linalg("cython_lapack") is cython_lapack
"""
        for script in (after, before):
            subprocess.run([sys.executable, "-c", script], check=True, env=_src_env(), timeout=120)

    def test_block_checks_use_the_exact_scale_and_residual(self, monkeypatch):
        # every vector check a boundary sweep makes, at both ends of each pair
        # on the 90-angle grid, read column by column from the batched check
        # of the block's one point stage: the banded and reduced blocks never
        # form H(theta), yet each column's scale must be max(1, max |H_ij|)
        # bit for bit and its H v that of the full block of H(theta) at end 0
        # and of -H(theta) at end 1, so the residual is the one a dense check
        # would see; a graded block checks its p_0 alone, once, as the top end
        # at theta = 0, on each of its paths, and a kd = 0 block checks none
        checks = []
        original = numrange._checked_columns
        monkeypatch.setattr(numrange, "_checked_columns", lambda *args: checks.append(args) or original(*args))
        paths, disc_paths = set(), set()
        thetas = 2.0 * np.pi * np.arange(90) / 90
        cases = list(_structured_matrices()) + [("theo2", _theo2(128))]
        # at 1e3 times the size the scale is not hidden by its floor of 1
        for name, A in cases + [(f"{name} x 1e3", 1e3 * A) for name, A in cases]:
            A_re, A_im = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2j
            for idx, block in zip(_residue_classes(A)[0], _blocks(A)):
                paths.add(_path(block))
                checks.clear()
                _drive(block, thetas)
                columns = [(lam[k], V[:, k], HV[:, k], scale[k]) for lam, V, HV, scale in checks for k in range(V.shape[1])]
                if block.labels is not None:
                    disc_paths.add(_path(block))
                    want = [(1.0, 0.0, 0)]
                else:
                    want = [] if block.closed else [(np.cos(th), np.sin(th), end) for th in thetas for end in (0, 1)]
                assert len(columns) == len(want), name
                for (lam, v, Hv, scale), (c, s, end) in zip(columns, want):
                    H = (-1.0 if end else 1.0) * (c * A_re[np.ix_(idx, idx)] + s * A_im[np.ix_(idx, idx)])
                    assert v.size == idx.size and scale == max(1.0, float(np.max(np.abs(H)))), name
                    assert np.linalg.norm(Hv - H @ v) <= 1e-12 * scale, name
                    full = np.linalg.norm(H @ v - lam * v)
                    assert abs(np.linalg.norm(Hv - lam * v) - full) <= 1e-12 * scale, name
        assert paths == {"band", "reduced", "dense", "diagonal"} and disc_paths == {"band", "reduced", "dense"}

    def test_each_point_is_the_form_of_its_checked_vector(self, monkeypatch):
        # the point an end returns is v* A v for the very vector v that the
        # batched check accepted in its column (v = [Q, z] u on a reduced
        # block), on every path and at both ends of each pair; a graded
        # block's point at t, theta or theta + pi, is the form of D_t* v_0 for
        # the one vector v_0 it checked, with D_t = diag(e^{i t f}) on its
        # labels f; a kd = 0 block's point is the diagonal entry A_ii at the
        # first largest entry of that end's diagonal, the form of e_i
        checks = []
        original = numrange._checked_columns
        monkeypatch.setattr(numrange, "_checked_columns", lambda *args: checks.append(args) or original(*args))
        paths, disc_paths = set(), set()
        thetas = 2.0 * np.pi * np.arange(30) / 30
        for name, A in list(_structured_matrices()) + [("theo2", _theo2(128))]:
            tol = 1e-12 * max(1.0, float(np.max(np.abs(A))))
            for idx, block in zip(_residue_classes(A)[0], _blocks(A)):
                paths.add(_path(block))
                A_block = A[np.ix_(idx, idx)]
                checks.clear()
                points = _drive(block, thetas)
                vectors = [V[:, k] for _, V, _, _ in checks for k in range(V.shape[1])]
                if block.labels is not None:
                    disc_paths.add(_path(block))
                    (v_0,) = vectors
                elif block.closed:
                    assert not vectors, name
                for j, th in enumerate(thetas):
                    for end in (0, 1):
                        if block.labels is not None:
                            v = np.exp(-1j * (th + np.pi * end) * block.labels) * v_0
                        elif block.closed:
                            H = (-1.0 if end else 1.0) * (np.cos(th) * A_block.real.diagonal() + np.sin(th) * A_block.imag.diagonal())
                            assert points[end, j] == A_block[np.argmax(H), np.argmax(H)], (name, th, end)
                            continue
                        else:
                            v = vectors[2 * j + end]
                        assert abs(points[end, j] - np.vdot(v, A_block @ v)) <= tol, (name, th, end)
        assert paths == {"band", "reduced", "dense", "diagonal"} and disc_paths == {"band", "reduced", "dense"}

    def test_each_winning_block_takes_its_points_in_one_batch(self, monkeypatch):
        # a boundary sweep turns vectors into points once per block that won
        # an end, after its angle loop, over every end that the block won,
        # pair by pair and end 0 before end 1: the winners are recomputed
        # here from the supports that each block's ends returned, the first
        # largest in block order at each solved end.  On a uniform grid the
        # even pairs solve every block; an odd pair may leave a block that
        # loses both its ends unsolved, and must solve at least one
        solved, batches = [], []
        ends, points = numrange._Block.ends, numrange._Block.points

        def spy_ends(block, c, s, both):
            supports, vector = ends(block, c, s, both)
            solved.append((block, (c, s), list(supports)))
            return supports, vector

        monkeypatch.setattr(numrange._Block, "ends", spy_ends)
        monkeypatch.setattr(numrange._Block, "points", lambda block, taken: batches.append((block, [(c, s, end) for end, c, s, *_ in taken])) or points(block, taken))
        cases = [(name, A) for name, A in _structured_matrices() if not any(block.closed for block in _blocks(A))]
        assert {name for name, _ in cases} >= {"t3", "th1", "th2_n3", "dense24", "composition", "psd_rank_one"}
        for name, A in cases + [("theo2", _theo2(64))]:
            blocks = len(_residue_classes(A)[0])
            for K in (90, 91):
                solved.clear()
                batches.clear()
                boundary_points(A, K)
                pairs = _pairing(A, _angle_grid(K))[0]
                first = _angle_grid(K)[[j for j, _ in pairs]]
                index = {cs: j for j, cs in enumerate(zip(np.cos(first), np.sin(first)))}
                order = {block: b for b, block in enumerate(dict.fromkeys(block for block, _, _ in solved))}
                per_pair = {}
                for block, cs, supports in solved:
                    per_pair.setdefault(index[cs], []).append((order[block], supports))
                assert sorted(per_pair) == list(range(len(pairs))) and len(order) == blocks, (name, K)
                assert all(len(per_pair[j]) == blocks for j in range(0, len(pairs), 2)), (name, K)
                won = {}
                for j, (_, second) in enumerate(pairs):
                    per_block = sorted(per_pair[j])
                    for end in range(1 if second is None else 2):
                        winner = per_block[int(np.argmax([supports[end] for _, supports in per_block]))][0]
                        won.setdefault(winner, []).append((j, end))
                assert sum(map(len, won.values())) == sum(1 if second is None else 2 for _, second in pairs)
                assert [order[block] for block, _ in batches] == sorted(won), (name, K)
                assert {order[block]: [(index[c, s], end) for c, s, end in taken] for block, taken in batches} == won, (name, K)

    def test_scale_entries_hold_the_largest_entry_at_every_angle(self):
        # random parts of scale 1e-5 and 1e5 drop entries; where lo = 0
        # everywhere (Hermitian, skew-Hermitian, a phase times Hermitian)
        # every entry is kept.  A dense block keeps the entries of its parts,
        # and so does the zero class of a banded matrix, dense and graded,
        # which keeps all of them
        rng = np.random.default_rng(23)
        pairs = []
        for k in range(50):
            A = 10.0 ** (5 * (-1) ** k) * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
            pairs.append(((A + A.conj().T) / 2.0, (A - A.conj().T) / 2j, True))
        X = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        Y = X + X.conj().T
        pairs += [(Y, 0.0 * Y, False), (0.0 * Y, Y, False), (np.cos(0.3) * Y, np.sin(0.3) * Y, False)]
        pairs = [(A_re, A_im, drops, _scale_entries(A_re, A_im)) for A_re, A_im, drops in pairs]
        zero_class = np.zeros((8, 8), dtype=complex)
        zero_class[2, 0] = 1.0
        for A, b, drops in ((dict(_structured_matrices())["dense24"], 0, True), (zero_class, 1, False)):
            block = _blocks(A)[b]
            assert _path(block) == "dense" and (block.labels is not None) == (not drops)
            pairs.append((*block.parts, drops, block.scale_entries))
        thetas = 2.0 * np.pi * np.arange(360) / 360
        for A_re, A_im, drops, (a, b) in pairs:
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
        # a complex diagonal is a kd = 0 block, answered in closed form: its
        # ends are the largest and smallest of c Re d_j + s Im d_j, read with
        # no dstebz call, bit for bit
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

    def test_a_band_whose_hermitian_part_is_diagonal_is_bisected_exactly(self, monkeypatch):
        # A = D + S with S skew-Hermitian on a band of kd = 2: H(0) = Re D, so
        # zhbtrd gives a tridiagonal form with e = 0 at theta = 0, which
        # dstebz bisects to max(Re d) and min(Re d), bit for bit
        calls = []
        flapack = numrange._linalg("_flapack")
        original = flapack.dstebz
        monkeypatch.setattr(flapack, "dstebz", lambda d, e, *args: calls.append(np.array(e)) or original(d, e, *args))
        rng = np.random.default_rng(67)
        d = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        B = np.tril(_random_band(rng, 48, 2), -1)
        A = np.diag(d) + B - B.conj().T
        (block,) = _blocks(A)
        assert _path(block) == "band" and block.band.shape[1] == 3 and block.labels is None
        h = support_function(A, _angle_grid(64))
        assert not calls[0].any() and not calls[1].any()  # both ends of theta = 0 bisect a diagonal T
        assert h[0] == np.max(d.real) and h[32] == -np.min(d.real)
        assert support_function(A, [0.0])[0] == np.max(d.real)

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
            # odd K = 45 shares every 8th angle of the even grid; one reduction
            # per angle and block, except that at each of the 22 odd angles
            # th1's three blocks solve only the one block that wins
            reductions.clear()
            odd = support_function(A, _angle_grid(45))
            assert len(reductions) == {"th1": 23 * 3 + 22}.get(name, 45 * len(_blocks(A))), name
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

    def test_supports_agree_bit_for_bit_on_every_path(self):
        # boundary_points and support_function take every support from the
        # same call, so their bytes agree, signed zeros included, on every
        # path: band, dense, reduced, kd = 0 and graded, paired, mirrored and
        # unpaired
        graded = [A for _, A, _ in TestGradedBlocks._graded()]
        kinds = set()
        for A in [A for _, A in _structured_matrices()] + graded + [_theo2(64), np.diag(np.arange(-3.0, 3.0)) + 0j]:
            kinds |= {"graded" if block.labels is not None else _path(block) for block in _blocks(A)}
            for K in (360, 359, 90):
                rows = boundary_points(A, K)
                h = np.array([s for _, _, s in rows])
                assert h.tobytes() == support_function(A, _angle_grid(K)).tobytes(), K
        assert kinds == {"band", "dense", "reduced", "diagonal", "graded"}


def _offset(rng, n, d, center, real=False):
    """center I plus random entries at (k + d, k), which the labels f(k) = k // d grade."""
    w = rng.standard_normal(n - d) + (0.0 if real else 1j * rng.standard_normal(n - d))
    return center * np.eye(n, dtype=complex) + np.diag(w, -d)


class TestGradedBlocks:
    """A graded block is an exact disc, solved once; a diagonal block reads its points off the diagonal."""

    @staticmethod
    def _graded():
        # (name, matrix, path of its blocks): one offset, on a band or, in
        # blocks of 3, dense; a forest n -> 2n + 1, on its range about 0 and
        # dense about a centre c != 0; real and complex entries
        rng = np.random.default_rng(47)
        yield "offset1", _offset(rng, 80, 1, 0.7 - 0.4j), "band"
        yield "offset3_real", _offset(rng, 96, 3, 1.5, real=True), "band"
        yield "offset2_above", _offset(rng, 6, 2, -0.25 + 1j).T, "dense"
        yield "forest", _forest(rng, 64, 0.0), "reduced"
        yield "forest_real", _forest(rng, 40, 0.0, real=True), "reduced"
        yield "forest_centred", _forest(rng, 41, 2.0 + 0.5j), "dense"
        yield "forest_centred_real", _forest(rng, 30, -1.0, real=True), "dense"

    @staticmethod
    def _angle_sets():
        return [_angle_grid(360), _angle_grid(359), np.random.default_rng(53).uniform(-10.0, 10.0, 40)]

    def test_discs_match_eigvalsh_from_one_reduction_per_block(self, reductions):
        # every support against a dense eigvalsh of its own angle, and every
        # point against the disc c + R e^{i theta}, R = lambda_max(Re(A - cI)):
        # one reduction per block and sweep, on every path and angle array
        for name, A, path in self._graded():
            blocks = _blocks(A)
            assert {_path(block) for block in blocks} == {path} and all(block.labels is not None for block in blocks), name
            n, center = A.shape[0], A[0, 0]
            tol = 8.0 * n * np.finfo(float).eps * np.max(np.abs(A))
            B = A - center * np.eye(n)
            R = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]
            for thetas in self._angle_sets():
                reductions.clear()
                h = support_function(A, thetas)
                assert len(reductions) == len(blocks), name
                assert np.max(np.abs(h - _top_eigvals(A, thetas))) <= tol, name
            for K in (360, 359):
                reductions.clear()
                rows = boundary_points(A, K)
                assert len(reductions) == len(blocks), (name, K)
                assert np.array_equal(np.array([s for _, _, s in rows]), support_function(A, _angle_grid(K))), (name, K)
                assert max(abs(p - (center + R * np.exp(1j * th))) for th, p, _ in rows) <= tol, (name, K)

    def test_one_entry_away_from_graded_takes_the_full_count(self, reductions):
        # the mirror of an entry, A_0d next to A_d0, contradicts any labels,
        # and so does one diagonal entry off the centre: the block of index 0
        # is solved at every pair or angle, any other block still once
        for name, A, _ in self._graded():
            off = A - np.diag(np.diagonal(A))
            d = int(np.flatnonzero(off[:, 0] + off[0])[0])  # the entry (d, 0), or (0, d) above the diagonal
            mirrored, moved = A.copy(), A.copy()
            mirrored[0, d] = mirrored[d, 0] = off[d, 0] + off[0, d]
            moved[0, 0] += 0.125
            for near in (mirrored, moved):
                blocks = _blocks(near)
                assert [block.labels is None for block in blocks] == [True] + [False] * (len(blocks) - 1), name
                for thetas in self._angle_sets():
                    pairs = len(_pairing(near, thetas)[0])
                    reductions.clear()
                    h = support_function(near, thetas)
                    assert len(reductions) == pairs + len(blocks) - 1, name
                    assert np.max(np.abs(h - _top_eigvals(near, thetas))) <= 1e-13 * np.max(np.abs(h)), name

    def test_diagonal_points_are_winning_diagonal_entries(self, monkeypatch):
        # a kd = 0 block takes the diagonal entry at the first largest entry
        # of this end's diagonal, never inverse iteration: each point is a
        # diagonal entry whose support wins its angle, where repeated entries
        # and the pair 1 +- i tie
        monkeypatch.setattr(numrange, "_band_vector", lambda *args: pytest.fail("a diagonal block called _band_vector"))
        rng = np.random.default_rng(59)
        d = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        ties = np.concatenate([d, d[:4], [1 + 1j, 1 - 1j, 1 + 1j]])
        for diagonal in (ties, ties.real, rng.permutation(ties)):
            A = np.diag(diagonal)
            assert [(_path(block), block.labels) for block in _blocks(A)] == [("diagonal", None)]
            for K in (360, 359):
                for th, p, _ in boundary_points(A, K):
                    # theta + pi is solved as -H(theta), so a winner may lose at theta + pi by rounding
                    H = np.cos(th) * diagonal.real + np.sin(th) * diagonal.imag
                    assert p in diagonal[H >= np.max(H) - 8.0 * np.finfo(float).eps * np.max(np.abs(diagonal))], (K, th)


    def test_closed_blocks_match_their_per_angle_formulas_bit_for_bit(self, monkeypatch):
        # closed_ends answers every angle in one array pass; each support and
        # point must have the bits of the per-angle formula: on a kd = 0
        # block, a constant diagonal or the zero matrix included, max(d) /
        # unit and -(min(d) / unit) for d = unit Re H_ii(theta), and the
        # diagonal entry at the first largest entry of H_ii or -H_ii, with
        # ties and a NaN entry, which wins wherever it stands; on a graded
        # block Re(e^{-i theta} c) + r and r - Re(e^{-i theta} c), and
        # c +- complex(cos, sin) (p_0 - c) in Python's complex arithmetic
        rng = np.random.default_rng(61)
        d = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        ties = np.concatenate([d, d[:3], [1 + 1j, 1 - 1j, 0.0, 1 + 1j]])
        with_nan = ties.copy()
        with_nan[5] = complex(np.nan, 1.0)
        diagonals = [np.diag(x) for x in (ties, ties.real.astype(complex), with_nan, 2.0**-1060 * ties, 1e300 * ties)]
        diagonals += [np.zeros((5, 5), dtype=complex), 0.5j * np.eye(4, dtype=complex)]
        graded = [A for _, A, _ in self._graded()]
        for A in diagonals + graded:
            for thetas in self._angle_sets():
                c, s = np.cos(thetas), np.sin(thetas)
                for block in _blocks(A):
                    assert block.closed
                    p0 = []
                    if block.labels is not None:
                        monkeypatch.setattr(block, "points", lambda taken, block=block: p0.append(numrange._Block.points(block, taken)[0]) or np.array(p0[-1:]))
                    supports, points = block.closed_ends(c, s)
                    points = points()
                    want_h, want_p = [], []
                    if block.labels is not None:
                        (h0,), _ = numrange._Block.ends(block, 1.0, 0.0, False)
                        center, r = block.center, h0 - block.center.real
                    for cj, sj in zip(c, s):
                        if block.labels is None:
                            H = (cj * block.parts[0] + sj * block.parts[1]).real
                            d = H * block.unit
                            want_h.append([float(np.max(d)) / block.unit, -(float(np.min(d)) / block.unit)])
                            want_p.append([block.diagonal[np.argmax(H)], block.diagonal[np.argmax(-H)]])
                        else:
                            t = cj * center.real + sj * center.imag
                            w = complex(cj, sj) * (complex(p0[0]) - center)
                            want_h.append([t + r, r - t])
                            want_p.append([center + w, center - w])
                    assert np.array(want_h).T.tobytes() == supports.tobytes()
                    assert np.array(want_p, dtype=complex).T.tobytes() == points.tobytes()
                    if block.labels is None and np.isnan(A).any():
                        assert np.isnan(supports).all() and np.isnan(points).all()
                    assert len(p0) == (block.labels is not None)

    def test_diagonal_blocks_call_no_solver(self, monkeypatch):
        # every kd = 0 matrix, a constant diagonal and the zero matrix
        # included, is answered in closed form: no band reduction, no
        # tridiagonal form and no bisection, in a sweep of supports, of
        # boundary points or of a margin, which equals the full grid minimum
        def refuse(name):
            return lambda *args: pytest.fail(f"a diagonal matrix constructed a {name}")

        monkeypatch.setattr(numrange._BandReduction, "__init__", refuse("_BandReduction"))
        monkeypatch.setattr(numrange._Tridiagonal, "__init__", refuse("_Tridiagonal"))
        monkeypatch.setattr(numrange._linalg("_flapack"), "dstebz", refuse("dstebz call"))
        rng = np.random.default_rng(71)
        d = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        matrices = [np.zeros((5, 5), dtype=complex), (0.5 + 0.25j) * np.eye(6, dtype=complex), 0.5j * np.eye(4, dtype=complex)]
        matrices += [np.diag(d) * 2.0**p for p in (0, -1060, 1000)]
        for A in matrices:
            assert [_path(block) for block in _blocks(A)] == ["diagonal"]
            for K in (360, 359):
                g = _angle_grid(K)
                h = support_function(A, g)
                assert np.array([s for _, _, s in boundary_points(A, K)]).tobytes() == h.tobytes()
                target = support_of(DiscSpec(0.125j * np.max(np.abs(A)), 0.25 * np.max(np.abs(A))), g)
                assert numrange._grid_margin(A, target, K) == float(np.min(h - target))


@st.composite
def _rotation_symmetric(draw):
    """(A, order, K, scale): a zero diagonal and, within g residue classes, offsets q = 1 mod n, so that A is n-fold rotation symmetric.

    n, g, the class sizes and the offsets besides q = 1, which keeps the
    classes those of g, are drawn, real or complex entries from a drawn
    seed, K a multiple of n or not, and the scale 1, 2^-1060 or 2^1000.
    """
    n, g, m = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(3, 12))
    size = g * m + draw(st.integers(0, g - 1))
    others = [q for q in range(1 - m, m) if q != 1 and (q - 1) % n == 0]
    offsets = [1] + (draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True)) if others else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    A = np.zeros((size, size), dtype=complex)
    for q in offsets:
        w = rng.standard_normal(size - abs(q) * g) + (0.0 if real else 1j * rng.standard_normal(size - abs(q) * g))
        A += np.diag(w, -q * g)
    K = draw(st.one_of(st.integers(2, 12).map(lambda k: n * k), st.integers(4, 40)))
    scale = 2.0 ** draw(st.sampled_from([0, -1060, 1000]))
    return A * scale, n, K, scale


class TestRotationSymmetry:
    """A zero diagonal and offsets q = 1 mod n within the residue classes make the range n-fold symmetric: the sweep solves one window and copies it."""

    def test_turns_are_exact_on_quarter_turns(self):
        # p e^{2 pi i m / fold}: a quarter turn swaps and negates parts, signed
        # zeros included; any other turn is the complex product up to rounding
        parts = np.array([0.0, -0.0, 1.5, -2.25, 1e-310, 1e300])
        p = (parts[:, None] + 1j * parts[None, :]).ravel()
        x, y = p.real, p.imag
        for fold in (1, 2, 4, 8, 3, 5, 6):
            for m in range(fold):
                got = numrange._turned(p, np.full(p.size, m), fold)
                if 4 * m % fold == 0:
                    want = [(x, y), (-y, x), (-x, -y), (y, -x)][4 * m // fold]
                    assert got.real.tobytes() == want[0].tobytes() and got.imag.tobytes() == want[1].tobytes(), (fold, m)
                else:
                    assert np.allclose(got, p * np.exp(2j * np.pi * m / fold), rtol=1e-15, atol=0.0), (fold, m)

    def test_windows_solve_one_orbit_per_angle(self, reductions):
        # th2_n3 is 3-fold and complex: K = 360 solves the 60 pairs (j, j +
        # 180) of a 120-angle window, at most 180 reductions on its three
        # blocks; th2_n2 and t3 are 2-fold and real: the 91 angles of [0,
        # pi/2], top end alone.  Every other angle is a copy, its support bit
        # for bit and its point turned; at the prime K = 359 and 361 nothing
        # is copied or paired
        matrices = dict(_structured_matrices())
        for name, fold, pairs, paired in (("th2_n3", 3, 60, 60), ("th2_n2", 2, 91, 0), ("t3", 2, 91, 0)):
            A = matrices[name]
            solved, copies, got = _pairing(A, _angle_grid(360))
            assert (got, len(solved), sum(k is not None for _, k in solved)) == (fold, pairs, paired), name
            reductions.clear()
            rows = boundary_points(A, 360)
            assert len(reductions) <= pairs * len(_blocks(A)), name
            h, points = np.array([s for _, _, s in rows]), np.array([p for _, p, _ in rows])
            target, source, turns, flip = copies
            assert h[target].tobytes() == h[source].tobytes(), name
            moved = numrange._turned(np.where(flip, np.conj(points[source]), points[source]), turns, fold)
            assert points[target].tobytes() == moved.tobytes(), name
            assert np.max(np.abs(h - _top_eigvals(A, _angle_grid(360)))) <= 1e-13 * np.max(np.abs(h)), name
            for K in (359, 361):
                reductions.clear()
                support_function(A, _angle_grid(K))
                assert len(reductions) >= K, (name, K)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_rotation_symmetric())
    def test_symmetric_sweeps_match_the_full_sweep(self, case):
        # against the reversed grid, which takes no shortcut: supports within
        # rounding, copies bit for bit, every point on its support line
        # within the residual check's bound, and a pattern one entry away
        # (a diagonal entry an ulp from 0, or an entry at the offset q = 2,
        # which is 1 mod no n > 1) swept exactly as with no symmetry
        A, n, K, scale = case
        size, largest, g = A.shape[0], float(np.max(np.abs(A))), len(_residue_classes(A)[0])
        assert _residue_classes(A)[2] % n == 0
        grid = _angle_grid(K)
        moved, off = A.copy(), A.copy()
        moved[0, 0] = np.nextafter(0.0, 1.0)
        off[2 * g, 0] = scale
        made, init, eigenvalue = [], numrange._Tridiagonal.__init__, numrange._Tridiagonal.eigenvalue

        def counted(B, fold=None):
            """(reductions, bisections) of a sweep of B on the grid; with ``fold`` 1, as if the zero pattern showed no symmetry."""
            made.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(numrange._Tridiagonal, "__init__", lambda T, *args: made.append("reduction") or init(T, *args))
                patch.setattr(numrange._Tridiagonal, "eigenvalue", lambda T, end: made.append("bisection") or eigenvalue(T, end))
                if fold == 1:
                    patch.setattr(numrange, "_residue_classes", lambda M, classes=numrange._residue_classes: classes(M)[:2] + (1,))
                support_function(B, grid)
            return made.count("reduction"), made.count("bisection")

        h = support_function(A, grid)
        full = support_function(A, grid[::-1])[::-1]
        tol = max(16.0 * size * np.finfo(float).eps * largest, 16.0 * np.finfo(float).smallest_subnormal)
        assert np.max(np.abs(h - full)) <= tol
        _, copies, fold = _pairing(A, grid)
        target, source = copies[:2]
        assert h[target].tobytes() == h[source].tobytes()
        rows = boundary_points(A, K)
        assert np.array([s for _, _, s in rows]).tobytes() == h.tobytes()
        bound = 1e-10 * np.sqrt(size) * max(1.0, largest)
        assert all(abs((np.exp(-1j * th) * p).real - s) <= bound for th, p, s in rows)
        for B in (moved, off):
            assert _residue_classes(B)[2] == 1 and counted(B) == counted(B, fold=1)
        if fold > 1:
            (reduced, bisected), (reduced_full, bisected_full) = counted(A), counted(A, fold=1)
            assert reduced <= reduced_full and bisected < bisected_full


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

    def test_point_cloud_supports_match_the_per_angle_maximum_bit_for_bit(self):
        # support_of takes slices of angles at once, with the elementwise ops
        # of one angle: the bits of max(c x + s y) angle by angle, over ties
        # and signed zeros, at scale 1 and near both ends of the float range
        rng = np.random.default_rng(73)
        thetas = np.concatenate([_angle_grid(360), [0.0, -0.0, np.pi / 2.0, np.pi, -np.pi / 2.0], rng.uniform(-10.0, 10.0, 30)])
        ties = np.array([1.0, -1.0, 0.0, -0.0, 0.5])
        for size in (1, 3, 64, 5000):
            cloud = rng.choice(ties, size) + 1j * rng.choice(ties, size)
            cloud[::3] += rng.standard_normal(cloud[::3].size)
            for p in (0, -1060, 1000):
                pts = cloud * 2.0**p
                want = np.array([np.max(d.real * pts.real - d.imag * pts.imag) for d in np.exp(-1j * thetas)])
                assert support_of(pts, thetas).tobytes() == want.tobytes(), (size, p)

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


def _on_classes(blocks, real=False):
    """The matrix whose residue classes mod len(blocks) hold the given square blocks, all of one size."""
    g, m = len(blocks), blocks[0].shape[0]
    A = np.zeros((g * m, g * m), dtype=complex)
    for r, X in enumerate(blocks):
        A[r::g, r::g] = X.real if real else X
    return A


def _normal(rng, m, eigenvalues, real=False):
    """U diag(eigenvalues) U* for a random unitary U (orthogonal for ``real``), padded with small random eigenvalues."""
    w = np.concatenate([eigenvalues, 0.3 * (rng.standard_normal(m - len(eigenvalues)) + (0.0 if real else 1j * rng.standard_normal(m - len(eigenvalues))))])
    X = rng.standard_normal((m, m)) + (0.0 if real else 1j * rng.standard_normal((m, m)))
    U = np.linalg.qr(X)[0]
    return (U * w) @ U.conj().T


def _multi_block_matrices():
    """(name, matrix, homogeneous): matrices of two or more residue-class blocks, the blocks of a homogeneous one alike in path and realness.

    The "vertex" blocks are normal, with the eigenvalues 1 and -1 in common,
    so their supports tie up to rounding over wide arcs, where a skip taken
    without its slack would change the winner.
    """
    rng = np.random.default_rng(67)
    matrices = dict(_structured_matrices())
    yield "th1", matrices["th1"], True
    # n-fold symmetric: each sweep solves one window and copies the rest
    yield "th2_n2", matrices["th2_n2"], True
    yield "th2_n3", matrices["th2_n3"], True
    dense = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) for _ in range(3)]
    yield "dense", _on_classes(dense), True
    yield "dense_real", _on_classes(dense[:2], real=True), True
    yield "bands", _on_classes([_random_band(rng, 48, 2) for _ in range(2)]), True
    low = [np.outer(rng.standard_normal(40) + 1j * rng.standard_normal(40), rng.standard_normal(40)) for _ in range(3)]
    yield "reduced", _on_classes(low), True
    yield "vertex", _on_classes([_normal(rng, 12, [1.0, -1.0]) for _ in range(3)]), True
    yield "vertex_real", _on_classes([_normal(rng, 12, [1.0, -1.0], real=True) for _ in range(3)]), True
    yield "mixed", _on_classes([dense[0], _forest(rng, 16, 0.2 + 0.1j), _normal(rng, 16, [1.0, 1j])]), False


def _reference_sweep(A, K):
    """(supports, points) of ``boundary_points(A, K)`` from every block at every angle pair: the unpruned sweep, from each block's own steps, with the sweep's copies."""
    thetas = _angle_grid(K)
    blocks = _blocks(A)
    pairs, copies, fold = _pairing(A, thetas)
    first = thetas[[j for j, _ in pairs]]
    c, s = np.cos(first), np.sin(first)
    supports = np.zeros((len(blocks), 2, len(pairs)))
    closed = {}
    for b, block in enumerate(blocks):
        if block.closed:
            supports[b], closed[b] = block.closed_ends(c, s)
    h, points = np.empty(K), np.empty(K, dtype=complex)
    taken, angles = [[] for _ in blocks], [[] for _ in blocks]
    for j, pair in enumerate(pairs):
        count, vector = (1 if pair[1] is None else 2), {}
        for b, block in enumerate(blocks):
            if not block.closed:
                supports[b, :count, j], vector[b] = block.ends(c[j], s[j], count == 2)
        for end, b in enumerate(np.argmax(supports[:, :count, j], axis=0)):
            h[pair[end]] = supports[b, end, j]
            taken[b].append((end, c[j], s[j], supports[b, end, j], vector[b](end)) if b in vector else (end, j))
            angles[b].append(pair[end])
    for b, block in enumerate(blocks):
        if b in closed and taken[b]:
            P = closed[b]()
            points[angles[b]] = [P[end, j] for end, j in taken[b]]
        elif taken[b]:
            points[angles[b]] = block.points(taken[b])
    for i, j, m, flip in copies.T:
        h[i], points[i] = h[j], numrange._turned(np.conj(points[j:j + 1]) if flip else points[j:j + 1], m, fold)[0]
    return h, points


class TestPruning:
    """A sweep skips only solves that cannot change an output: blocks that lose both ends of an odd pair, and pairs that cannot hold a margin."""

    def test_multi_block_sweeps_match_the_unpruned_sweep_bit_for_bit(self, reductions):
        # every support and point of boundary_points, and every support of
        # support_function, against the reference that solves every block at
        # every pair; a homogeneous matrix's supports are also the largest of
        # its blocks' own sweeps.  The rule skips blocks on uniform grids at
        # scale 1, and the floor of the slack stops it at 2^-1060
        pruned = full = 0
        for name, A, homogeneous in _multi_block_matrices():
            classes = _residue_classes(A)[0]
            assert len(classes) >= 2 and sum(not block.closed for block in _blocks(A)) >= 2, name
            for K in (360, 359, 64):
                for p in (0, -1060, 1000) if K == 64 else (0,):
                    B = A * 2.0**p
                    reductions.clear()
                    h, points = _reference_sweep(B, K)
                    made = len(reductions)
                    reductions.clear()
                    rows = boundary_points(B, K)
                    assert np.array([s for _, _, s in rows]).tobytes() == h.tobytes(), (name, K, p)
                    assert np.array([q for _, q, _ in rows]).tobytes() == points.tobytes(), (name, K, p)
                    assert len(reductions) <= made if p != -1060 else len(reductions) == made, (name, K, p)
                    pruned, full = pruned + len(reductions), full + made
                    assert support_function(B, _angle_grid(K)).tobytes() == h.tobytes(), (name, K, p)
                    if homogeneous:
                        own = [support_function(B[np.ix_(idx, idx)], _angle_grid(K)) for idx in classes]
                        assert np.max(own, axis=0).tobytes() == h.tobytes(), (name, K, p)
        assert pruned < 0.85 * full

    def test_margins_are_the_full_grid_minimum_bit_for_bit(self, reductions):
        # _margin against the minimum of a full sweep's supports less the
        # target's, on band, reduced, dense, closed and multi-block matrices,
        # real and complex, against a disc, an ellipse, a point cloud and the
        # two boundary points at angles 0 and 2 pi / 3, which the range
        # touches twice, far apart; at 2^-1060 every pair is solved
        matrices = dict(_structured_matrices())
        multi = {name: A for name, A, _ in _multi_block_matrices()}
        cases = {name: matrices[name] for name in ("t3", "pro1_ellipse", "dense24", "disc_band", "diagonal", "disc_dense")}
        cases.update(theo2=_theo2(64), th1=matrices["th1"], vertex=multi["vertex"], mixed=multi["mixed"])
        kinds = set()
        pruned = full = 0
        for name, A in cases.items():
            blocks = _blocks(A)
            kinds |= {"closed" if block.closed else _path(block) for block in blocks} | {"multi" if len(blocks) > 1 else "single"}
            kinds.add("real" if not A.imag.any() else "complex")
            for K in (360, 359, 64):
                g = _angle_grid(K)
                for p in (0, -1060, 1000) if K == 64 else (0,):
                    B = A * 2.0**p
                    blocks = _blocks(B)  # subnormal entries can round a block to a graded one
                    h = support_function(B, g)
                    pairs = len(_pairing(B, g)[0])
                    everything = pairs * sum(not block.closed for block in blocks) + sum(block.labels is not None for block in blocks)
                    rows = boundary_points(B, K)
                    touching = np.array([rows[0][1], rows[K // 3][1]])
                    shapes = [DiscSpec(2.0**p * 0.1j, 2.0**p * 0.2), 2.0**p * np.array([0j, 0.5 - 0.25j, 0.1 + 0.6j]), touching]
                    shapes.append(EllipseSpec(-0.3 * 2.0**p, 2.0**p * (0.2 + 0.1j), 2.0**p * 0.25))
                    for shape in shapes:
                        reductions.clear()
                        got = _margin(B, shape, K)
                        assert got == float(np.min(h - support_of(shape, g))), (name, K, p, shape)
                        assert len(reductions) == everything if p == -1060 else len(reductions) <= everything, (name, K, p)
                        pruned, full = pruned + len(reductions), full + everything
        assert kinds == {"band", "reduced", "dense", "closed", "single", "multi", "real", "complex"}
        assert pruned < 0.5 * full


class TestCheckComparison:
    """``checks._margin`` and ``checks._gap``, which decide every comparison of a range with a closed-form set."""

    def test_margin_and_gap_are_the_grid_extremes(self):
        # a banded, a reduced and a dense sweep against a disc, an ellipse and a point cloud
        matrices = dict(_structured_matrices())
        g = _angle_grid(360)
        shapes = (DiscSpec(0.1j, 0.2), EllipseSpec(-0.3, 0.2 + 0.1j, 0.25), np.array([0j, 0.5 - 0.25j, 0.1 + 0.6j]))
        for name in ("t3", "composition", "dense24"):
            h = support_function(matrices[name], g)
            for shape in shapes:
                d = h - support_of(shape, g)
                assert _margin(matrices[name], shape, 360) == float(np.min(d)), (name, shape)
                assert _gap(matrices[name], shape, 360) == float(np.max(np.abs(d))), (name, shape)

    def test_needs_an_integer_grid(self):
        for bad in (3.5, 2, 720.0, "720"):
            for compare in (_margin, _gap):
                with pytest.raises(UsageError):
                    compare(np.eye(2), DiscSpec(0j, 0.5), bad)


class TestEllipseSpec:
    def test_supports_keep_their_bits_and_scale_to_the_float_limit(self):
        # the semi-axes are squared in a power-of-two frame: at scale 1 each
        # support has the bits of the unscaled formula, and 2^p times an
        # ellipse, semi-axes above 1e154 included, has 2^p times its supports
        rng = np.random.default_rng(71)
        thetas = np.concatenate([_angle_grid(360), rng.uniform(-10.0, 10.0, 40)])
        for _ in range(20):
            f1, f2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ell = EllipseSpec(f1, f2, float(rng.uniform(0.0, 2.0)))
            rel = thetas - np.angle(ell.focus2 - ell.focus1)
            bulge = np.sqrt((ell.major_axis / 2.0) ** 2 * np.cos(rel) ** 2 + (ell.minor_axis / 2.0) ** 2 * np.sin(rel) ** 2)
            h = ell.support(thetas)
            assert h.tobytes() == (np.real(np.exp(-1j * thetas) * ell.center) + bulge).tobytes()
            for p in (600, 1000, -1000):
                big = EllipseSpec(ell.focus1 * 2.0**p, ell.focus2 * 2.0**p, ell.minor_axis * 2.0**p)
                assert big.support(thetas).tobytes() == (h * 2.0**p).tobytes(), p

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
