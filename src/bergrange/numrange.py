"""Numerical ranges of matrix truncations.

The numerical range of a matrix A is the set of Rayleigh quotients
v* A v over unit vectors.  It is convex, and its support function in the
direction e^{i theta} is the top eigenvalue of the Hermitian part of
e^{-i theta} A; the top eigenvector hands back a boundary point.  One
sweep kernel solves that Hermitian part at every angle; support_function
and boundary_points, hence every range here, call it.

The kernel picks its solver once per sweep from the exact zero pattern of
A, so a matrix read back from CSV is solved exactly as the one built in
process.  With g the gcd of the offsets |m - n| of the nonzero entries,
g > 1 makes A a direct sum over the residue classes mod g: the support is
the largest block support, and the boundary point that of the winning
block.  A block whose half-bandwidth kd is small against its size (a
Toeplitz truncation, a weighted composition over a rotation; kd = 0 for a
diagonal or zero matrix) is reduced on its band by LAPACK zhbtrd, which
scipy.linalg.lapack does not wrap: it is called through the pointer that
scipy.linalg.cython_lapack exports, on a workspace each block keeps, and
a kd = 0 band is its own tridiagonal form.  Every LAPACK and BLAS routine
comes from one of scipy's extension modules _flapack, _fblas and
cython_lapack, which ``_linalg`` loads on the first sweep without
importing the package scipy.linalg.  Where a banded block needs a
boundary point, the eigenvector comes from inverse iteration on the
band.  Any other block is dense, and
one column-pivoted QR of [A, A*] gives its numerical rank k, the count of
|R_ii| above n eps |R_00|.  If k < n, the block is solved on the k
dimensional space Q of the leading columns: the support is max(h_B, 0)
for B = Q* A Q, exact up to 2 tau with tau = ||R_22||_F, the scale of a
dense eigensolve's own backward error.  A block whose bound could fail
the residual check where H(theta) nearly vanishes (a large matrix near a
phase times a Hermitian one) stays dense, as does a zero block and every
block with k = n.  A dense or reduced block reduces its matrix to
tridiagonal form with zhetrd.  Every block then bisects its tridiagonal
form for one index with dstebz, except where that form is diagonal (a
kd = 0 band, a 1 x 1 block) and its ends are max(d) and min(d), the bits
dstebz would return; the matrix or band is first multiplied
by a power of two that takes its entries below 1, which is exact, so
2^p A has exactly 2^p times the supports of A, and which keeps huge
entries from overflowing.

H(theta + pi) = -H(theta), so one reduction gives two supports: index n
for theta and, as -lambda_min, index 1 for theta + pi.  On the uniform
grid 2 pi j / K with K even the sweep solves angle j with angle j + K/2
this way, on every kind of block.  For a
real A, H(-theta) = conj H(theta), so the support at -theta is the one at
theta and the point its conjugate: the sweep copies them, and solves only
the angles in [0, pi/2], 91 reductions for K = 360.  Realness is the
exact test that no imaginary part is nonzero, and it reads a matrix from
CSV as the one built in process.  Any other angle array (K odd, or
arbitrary angles) takes the same reduction for the top end alone.  Each
end gets the same eigenvalue with and without its eigenvector, so
supports agree bit for bit between the two sweeps.

A boundary point is computed only for the block that wins its end:
dstein gives the eigenvector of the tridiagonal matrix and zunmqr maps it
back, or inverse iteration on the band gives it for a banded block.
Every such eigenvector v is checked against the full-size block of
H(theta), or of -H(theta) at theta + pi, before it gives the point
v* A v: ||(H v - lam v) / scale|| <= 1e-10 sqrt(n), with n the block
size.  Every block takes its scale by one rule, max(1, max |c a + s b|)
over a set of entry pairs (a, b) that it picks once: the band storage of
A_re and A_im for a banded block, all of A_re and A_im for a dense one,
and for a reduced one the few entries that can hold the maximum at some
angle, from ``_scale_entries``.  Each set holds the largest entry of
H(theta) at every angle, so the scale is max(1, max_ij |H_ij(theta)|)
on every path.  Every path forms the product pair P = (A_re v, A_im v)
once and takes the rest from it: H v = c P[0] + s P[1], negated at
theta + pi, for the check, and the point Re(v* P[0]) + i Re(v* P[1]).
A banded block forms P from band storage at O(n kd) per angle, a reduced
block as G x with G = (A_re [Q, z], A_im [Q, z]), formed once, and x the
coordinates of v in [Q, z], at O(n k), and a dense block at O(n^2).

Reference shapes (discs, ellipses, and point clouds such as symbol
images sampled on the unit circle) share one support-function interface,
``support_of``; a hull polygon answers through its vertices.  Hull
geometry is taken in one exact power-of-two frame, from ``_frame``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bergrange.core import NumericError, UsageError, _as_complex, _as_int, _as_matrix, _as_number

__all__ = [
    "support_function",
    "boundary_points",
    "convex_hull",
    "HullPolygon",
    "numerical_range_hull",
    "DiscSpec",
    "EllipseSpec",
    "ellipse_from_2x2",
    "support_of",
]


@lru_cache(maxsize=None)
def _linalg(name: str):
    """The extension module scipy.linalg.<name> (``_flapack``, ``_fblas`` or ``cython_lapack``), loaded on first use.

    It is loaded from the directory of scipy.linalg, which ``find_spec``
    finds by importing the small top-level scipy package alone.  The
    package scipy.linalg is not imported: its ``__init__`` costs about
    0.25 s and 22 MiB, through scipy's array API layer, which imports
    numpy.testing, numpy.f2py and numpy.random, while these modules load in
    about 0.02 s.  The interpreter keeps an extension module under its
    name once it is loaded, so a later import of scipy.linalg.lapack or
    scipy.linalg.blas exports these same routines.
    """
    import importlib.machinery
    import importlib.util
    directory = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, extensions).find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"scipy.linalg.{name} is not in {directory}", name=f"scipy.linalg.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=64)
def _zhetrd_lwork(n: int) -> int:
    """zhetrd's optimal workspace for an n x n matrix, queried once per size."""
    return int(_linalg("_flapack").zhetrd_lwork(n, lower=1)[0].real)


def _unit(X: np.ndarray, Y: np.ndarray) -> float:
    """A power of two that takes every entry of c X + s Y, at any angle (c, s) = (cos, sin), below 1 in modulus."""
    exponent = np.frexp(max(float(np.max(np.abs(X))), float(np.max(np.abs(Y)))))[1]  # both below 2^exponent
    return float(np.ldexp(1.0, min(-exponent - 1, 1000)))


class _Tridiagonal:
    """A real symmetric tridiagonal T = unit Q* H Q of a Hermitian H, for the top eigenpairs of H and of -H.

    End 0 is the top eigenvalue of H and end 1 that of -H, which is
    -lambda_min(H); for H = H(theta), end 1 is the support at theta + pi.
    T comes from ``dense`` (zhetrd on a full H) or from a block's
    ``_BandReduction`` (zhbtrd on a band), and every block kind ends here:
    dstebz bisects T for index n or index 1, so an end gets the same
    eigenvalue with or without its vector.  H is reduced as H * unit, with
    ``unit`` a power of two from ``_unit``, so that no entry can overflow
    the reduction or the bisection; that product is exact, and the
    eigenvalues are divided by it again.  A T that has no reflectors and
    no nonzero off-diagonal entry (1 x 1, which dstebz cannot take, or a
    kd = 0 band) is its own spectrum: its ends are max(d) and min(d).

    Only a dense T holds ``reflectors``, and only it gives vectors, on
    request: dstein gives the eigenvector of T, and for lower = 1 the Q of
    zhetrd is diag(1, Q') with Q' the product of the QR-style reflectors in
    c[1:, :n-1], which zunmqr applies.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray, unit: float, reflectors=None):
        self.d, self.e, self.unit, self.reflectors, self.found = d, e, unit, reflectors, {}

    @classmethod
    def dense(cls, H: np.ndarray, unit: float) -> "_Tridiagonal":
        """T of a full Hermitian H, by zhetrd, with the reflectors that map its eigenvectors back."""
        if H.shape[0] == 1:
            return cls(H.real.ravel() * unit, np.zeros(0), unit)  # T = H * unit
        c, d, e, tau, info = _linalg("_flapack").zhetrd(H * unit, lower=1, lwork=_zhetrd_lwork(H.shape[0]), overwrite_a=1)
        if info != 0:
            raise NumericError(f"Hermitian tridiagonal reduction failed (LAPACK info {info})")
        return cls(d, e, unit, (c, tau))

    def eigenvalue(self, end: int) -> float:
        """The top eigenvalue of H for end 0, of -H for end 1."""
        if self.reflectors is None and not self.e.any():
            w = [np.min(self.d) if end else np.max(self.d)]  # T is diagonal, its own spectrum: the bits dstebz returns
        else:
            index = 1 if end else self.d.size
            m, w, iblock, isplit, info = _linalg("_flapack").dstebz(self.d, self.e, 2, 0.0, 0.0, index, index, 0.0, b"B")
            if info != 0 or m != 1:
                raise NumericError(f"Hermitian eigensolver failed (LAPACK info {info}, {m} eigenvalues)")
            self.found[end] = w[:1], iblock, isplit
        lam = float(w[0]) / self.unit
        return -lam if end else lam

    def vector(self, end: int) -> np.ndarray:
        """Unit eigenvector of the end that ``eigenvalue(end)`` solved: of H at lambda_max for end 0, at lambda_min for end 1."""
        if self.d.size == 1:
            return np.ones(1, dtype=complex)
        flapack = _linalg("_flapack")
        z, info = flapack.dstein(self.d, self.e, *self.found[end])
        if info != 0:
            raise NumericError(f"tridiagonal eigenvector failed (LAPACK info {info})")
        v = z[:, 0].astype(complex)
        c, tau = self.reflectors
        Qv, _, info = flapack.zunmqr(b"L", b"N", c[1:, :-1], tau, v[1:, None], 1, overwrite_c=1)
        if info != 0:
            raise NumericError(f"tridiagonal back transformation failed (LAPACK info {info})")
        v[1:] = Qv[:, 0]
        return v


# The C prototype of zhbtrd in scipy.linalg.cython_lapack, where the last
# typedef is double; a capsule of any other signature is refused.
_ZHBTRD_SIGNATURE = (
    b"void (char *, char *, int *, int *, __pyx_t_double_complex *, int *, "
    b"__pyx_t_5scipy_6linalg_13cython_lapack_d *, __pyx_t_5scipy_6linalg_13cython_lapack_d *, "
    b"__pyx_t_double_complex *, int *, __pyx_t_double_complex *, int *)"
)


@lru_cache(maxsize=1)
def _zhbtrd():
    """LAPACK zhbtrd as a ctypes function, taken from the capsule that scipy.linalg.cython_lapack exports.

    scipy.linalg.lapack does not wrap zhbtrd.  It is loaded on first use,
    through ``_linalg``, and its capsule must carry
    ``_ZHBTRD_SIGNATURE``, so that another ABI fails here instead of in
    LAPACK.  Every argument is a pointer, and the call releases the GIL.
    """
    import ctypes
    capsule = _linalg("cython_lapack").__pyx_capi__["zhbtrd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    if name != _ZHBTRD_SIGNATURE:
        raise ImportError(f"scipy.linalg.cython_lapack.zhbtrd has the signature {name!r}, not {_ZHBTRD_SIGNATURE!r}")
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 12)(get_pointer(capsule, name))


class _BandReduction:
    """zhbtrd for one band block, with its workspace made once.

    The workspace is a Fortran-ordered band buffer in LAPACK lower band
    storage, d, e, work and the int arguments N, KD, LDAB, LDQ and INFO;
    their pointers are taken once here, so a reduction costs one copy into
    the buffer and the bare call.  The T it returns holds d and e of this
    workspace, so it is read before the next reduction.
    """

    def __init__(self, kd: int, n: int):
        import ctypes
        self.ab = np.zeros((kd + 1, n), dtype=complex, order="F")
        self.d, self.e, self.work = np.zeros(n), np.zeros(max(n - 1, 0)), np.zeros(n, dtype=complex)
        self.ints = np.array([n, kd, kd + 1, 1, 0], dtype=np.intc)  # N, KD, LDAB, LDQ and INFO
        n_, kd_, ldab, ldq, info = (ctypes.c_void_p(self.ints.ctypes.data + i * self.ints.itemsize) for i in range(5))
        self.q = np.zeros(1, dtype=complex)  # VECT = 'N' forms no Q
        ab, d, e, q, work = (ctypes.c_void_p(X.ctypes.data) for X in (self.ab, self.d, self.e, self.q, self.work))
        self.args = (ctypes.c_char_p(b"N"), ctypes.c_char_p(b"L"), n_, kd_, ab, ldab, d, e, q, ldq, work, info)

    def __call__(self, ab: np.ndarray, unit: float) -> _Tridiagonal:
        """T of the Hermitian band ``ab`` (lower band storage), reduced as ab * unit."""
        if ab.shape[0] == 1:
            np.multiply(ab[0].real, unit, out=self.d)  # a diagonal band is its own T, which is what zhbtrd returns for kd = 0
        else:
            np.multiply(ab, unit, out=self.ab)
            _zhbtrd()(*self.args)
            if self.ints[4] != 0:
                raise NumericError(f"Hermitian band tridiagonal reduction failed (LAPACK info {self.ints[4]})")
        return _Tridiagonal(self.d, self.e, unit)


def _divided(X: np.ndarray, largest: float) -> np.ndarray:
    """X / largest for a complex X and a real largest >= max |X| > 0.

    numpy divides a complex array by a real through the reciprocal of the
    real, which overflows where ``largest`` is subnormal; there X and
    largest are first scaled up by 2^600, which is exact.
    """
    if largest < np.finfo(float).tiny:
        X, largest = np.ldexp(X.real, 600) + 1j * np.ldexp(X.imag, 600), np.ldexp(largest, 600)
    return X / largest


def _checked_pair(lam: float, v: np.ndarray, Hv: np.ndarray, scale: float) -> np.ndarray:
    """v, once the residual of H v = lam v is small enough to trust.

    ``Hv`` is H v and ``scale`` is max(1, max_ij |H_ij|).  The residual is
    divided by the scale before its norm is taken, so entries near the
    overflow threshold cannot overflow it, and must stay within
    1e-10 sqrt(n) for H of size n.
    """
    residual = float(np.linalg.norm((Hv - lam * v) / scale))
    if residual > 1e-10 * np.sqrt(v.size):
        raise NumericError(f"eigenpair residual too large: {residual * scale:.3e}")
    return v


def _band_vector(ab: np.ndarray, lam: float, start: np.ndarray) -> np.ndarray:
    """Unit eigenvector for the top eigenvalue ``lam`` of the Hermitian band matrix ``ab`` (lower band storage).

    Two steps of inverse iteration from ``start``, shifted to lam + n eps on
    the matrix scaled to unit largest entry: one band LU factorization and
    two solves, O(n kd^2), where mapping an eigenvector of the tridiagonal
    form back through the rotations of zhbtrd would cost O(n^2) at kd = 1
    and O(n^2 kd) beyond.  ``lam`` is the eigenvalue that the band's own
    reduction and bisection gave.  The shift lies within n eps of the top
    of the spectrum, so each step shrinks the other eigencomponents by about
    n eps over their gap; a top eigenvalue multiple to that scale gives a
    vector of its eigenspace, which is just as good a support point.  The
    two steps grow the vector by at most about 1 / eps^2, far from
    overflow, so it is normalized once.
    """
    flapack = _linalg("_flapack")
    kd, n = ab.shape[0] - 1, ab.shape[1]
    scale = float(np.max(np.abs(ab))) or 1.0
    # LAPACK general band storage with kd rows for the fill-in: lu[2 kd + i - j, j] = X[i, j]
    lu = np.zeros((3 * kd + 1, n), dtype=complex)
    lu[2 * kd :] = _divided(ab, scale)
    for d in range(1, kd + 1):
        lu[2 * kd - d, d:] = lu[2 * kd + d, : n - d].conj()
    lu[2 * kd] -= lam / scale + n * np.finfo(float).eps
    lu, piv, info = flapack.zgbtrf(lu, kd, kd)
    if info != 0:
        raise NumericError(f"band inverse iteration failed (LAPACK info {info})")
    x = start
    for _ in range(2):
        x, _ = flapack.zgbtrs(lu, kd, kd, x, piv)
    return x / np.linalg.norm(x)


# Solver choice, timed per angle through _Block.ends on random complex
# Hermitian bands (n = 48..400 with kd = n/32..n/8, one BLAS thread, 2-core
# Xeon, scipy's OpenBLAS 0.3.30): at 16 kd = n the band's zhbtrd and
# bisection cost 0.7-0.9 times the dense zhetrd and bisection, on paired
# grids (two ends per reduction) and unpaired ones alike, and the two
# break even between 8 kd = n and 12 kd = n.  A block takes the band while
# _BAND_RATIO * kd <= n, which keeps a margin over that crossover.
_BAND_RATIO = 16


def _residue_classes(M: np.ndarray):
    """Index sets over which M is a direct sum, and the half-bandwidth inside them.

    With g the gcd of the offsets |m - n| of the nonzero entries, every
    entry links two indices of one residue class mod g, and an offset d
    becomes d / g inside the class.  g < 2 leaves one class; a diagonal or
    zero matrix has half-bandwidth 0.
    """
    rows, cols = np.nonzero(M)
    offsets = np.flatnonzero(np.bincount(np.abs(rows - cols), minlength=1))
    n, g = M.shape[0], int(np.gcd.reduce(offsets))
    top = int(offsets[-1]) if offsets.size else 0
    if g < 2:
        return [np.arange(n)], top
    return [np.arange(r, n, g) for r in range(g)], top // g


def _range_basis(M: np.ndarray):
    """The n x (k + 1) basis [Q, z]: Q orthonormal for the numerical range(M) + range(M*), z a unit vector orthogonal to it; or None.

    One column-pivoted QR of X = [M, M*] gives the rank k, the count of
    |R_ii| above n eps |R_00|; [Q, z] is the first k + 1 columns of its Q
    factor.  With P = Q Q*, tau = ||R_22||_F = ||(I - P) X||_F
    bounds ||(I - P) M|| and ||M (I - P)||, and M - P M P = (I - P) M +
    P M (I - P), so each support of M is within 2 tau of max(h_B, 0) for
    B = Q* M Q, whose 0 is attained at z.

    M stays dense, and None is returned, if k = 0, if k = n, or if tau
    exceeds half of 1e-10 sqrt(n): a reduced pair misses H(theta) v = lam v
    by up to tau, and the residual check's tolerance falls to 1e-10 sqrt(n)
    where H(theta) is small, as for a large M near a phase times a
    Hermitian matrix.

    The QR is zgeqp3, called in place with the workspace query of scipy's
    ``qr``, and R is read from its upper triangle.  Q is formed from its
    reflectors only for a block that is kept, by the same LAPACK call and
    workspace query as scipy's full-mode ``qr``, so it has the same bits.
    """
    flapack = _linalg("_flapack")
    n = M.shape[0]
    X = np.vstack([M.T, M.conj()]).T  # [M, M*] in Fortran order, which zgeqp3 overwrites without a copy
    lwork = int(flapack.zgeqp3(X, lwork=-1, overwrite_a=1)[3][0].real)
    qr, _, scalars, _, info = flapack.zgeqp3(X, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise NumericError(f"column-pivoted QR failed (LAPACK info {info})")
    d = np.abs(np.diag(qr))
    k = int(np.count_nonzero(d > n * np.finfo(float).eps * d[0]))
    if k == 0 or k == n:
        return None
    # rows k.. of R are [0, R_22], scaled first so that a huge M cannot overflow the norm
    tau = d[0] * float(np.linalg.norm(_divided(np.triu(qr[k:], k), d[0])))
    if tau > 0.5e-10 * np.sqrt(n):
        return None
    lwork = int(flapack.zungqr(qr[:, :n], scalars, lwork=-1)[1][0].real)
    Q = flapack.zungqr(qr[:, :n], scalars, lwork=lwork, overwrite_a=1)[0]
    return Q[:, : k + 1]


def _scale_entries(A_re: np.ndarray, A_im: np.ndarray):
    """The entries (a, b) of A_re and A_im at which max_ij |c a + s b| can fall, for any angle (c, s) = (cos, sin).

    |c a + s b|^2 = P + Q cos 2 theta + X sin 2 theta with P = (|a|^2 +
    |b|^2) / 2, Q = (|a|^2 - |b|^2) / 2 and X = Re(a conj(b)), so over the
    angles |c a + s b| sweeps [lo, hi] with hi^2 = P + W, W = hypot(Q, X),
    and lo = |Im(a conj(b))| / hi, since P^2 - W^2 = Im(a conj(b))^2.  An
    entry whose hi lies below the largest lo never holds the maximum.  The
    entries are divided by the largest of them first, so nothing overflows,
    and an entry is dropped only if its hi falls short by more than 1e-12,
    far above the rounding of hi, lo and c a + s b.  A Hermitian block has
    lo = 0 everywhere and keeps every entry.  The entries go in slices of
    4096, so that the temporaries stay small next to the block.
    """
    a, b = A_re.ravel(), A_im.ravel()
    largest = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    hi, lo_max = np.empty(a.size), 0.0
    for i in range(0, a.size, 1 << 12):
        part = slice(i, i + (1 << 12))
        an, bn = _divided(a[part], largest), _divided(b[part], largest)
        sa, sb, ab = np.abs(an) ** 2, np.abs(bn) ** 2, an * bn.conj()
        hi[part] = h = np.sqrt((sa + sb) / 2.0 + np.hypot((sa - sb) / 2.0, ab.real))
        lo_max = max(lo_max, float(np.max(np.abs(ab.imag) / np.where(h > 0.0, h, 1.0))))
    keep = hi >= lo_max - 1e-12
    return a[keep], b[keep]


class _Block:
    """One residue-class block of a sweep: what its solver and its boundary points read of A_re and A_im.

    Every block keeps one pair ``parts``, with H(theta) = c parts[0] + s
    parts[1], and one ``reduce``, which takes H(theta) to tridiagonal form
    at the power of two ``unit`` of its parts.  A block with a narrow band
    keeps its band storage and its own ``_BandReduction``.  Any other block
    keeps the Hermitian parts of B = Q* A Q, on the basis [Q, z] of
    ``_range_basis`` where that is smaller than the block, or else A_re and
    A_im, and is reduced by zhetrd.  ``G`` is the pair whose products with
    an end's vector give P = (A_re v, A_im v): the band storage, A_re and
    A_im, or on a reduced block A_re [Q, z] and A_im [Q, z].
    ``scale_entries`` holds the entry pairs (a, b) over which the residual
    check takes its scale max(1, max |c a + s b|): the band storage, all of
    A_re and A_im, or on a reduced block those of ``_scale_entries``.
    """

    def __init__(self, M, A_re, A_im, idx, kd):
        whole = idx.size == M.shape[0]
        M, re, im = (X if whole else X[np.ix_(idx, idx)] for X in (M, A_re, A_im))
        self.band = self.basis = None
        self.parts = self.scale_entries = self.G = (re, im)
        self.reduce = _Tridiagonal.dense
        if _BAND_RATIO * kd <= idx.size:
            # LAPACK lower band storage: band[d, j] = X[j + d, j]
            self.band = self.parts = self.scale_entries = self.G = np.zeros((2, kd + 1, idx.size), dtype=complex)
            for d in range(kd + 1):
                self.band[:, d, : idx.size - d] = [np.diagonal(re, -d), np.diagonal(im, -d)]
            self.start = np.random.default_rng(0).standard_normal(idx.size).astype(complex)
            self.reduce = _BandReduction(kd, idx.size)
        elif (basis := _range_basis(M)) is not None:
            Q = basis[:, :-1]
            B = Q.conj().T @ M @ Q
            self.parts = ((B + B.conj().T) / 2.0, (B - B.conj().T) / 2j)
            self.basis, self.G = basis, (re @ basis, im @ basis)
            self.scale_entries = _scale_entries(re, im)
        self.unit = _unit(*self.parts)

    def ends(self, c, s, both: bool):
        """Supports of this block at theta and, with ``both``, at theta + pi, and a function that gives an end's boundary point.

        H(theta + pi) = -H(theta), so end 1 is the top of -H(theta).  A
        block forms H(theta) from its parts and reduces it once for both
        ends, and bisects that one tridiagonal form for each; a reduced
        block's support is max(h_B, 0).  The function takes the end, 0 or
        1, and that end's eigenvector v, as its coordinates x in [Q, z] on
        a reduced block.  It forms P = (A_re v, A_im v) once, as G x or
        with zhbmv on a band, checks v against that end's H v = +-(c P[0] +
        s P[1]), and returns the point v* A v = Re(v* P[0]) + i Re(v* P[1]).
        A sweep calls it only for the block that wins an end.
        """
        H = c * self.parts[0] + s * self.parts[1]
        T = self.reduce(H, self.unit)
        tops = [T.eigenvalue(end) for end in range(2 if both else 1)]
        supports = tops if self.basis is None else [float(np.maximum(lam, 0.0)) for lam in tops]  # a NaN stays NaN and wins the sweep's argmax

        def point(end):
            if self.band is not None:
                x = _band_vector(-H if end else H, tops[end], self.start)  # this end's H in band storage
            elif self.basis is None:
                x = T.vector(end)
            else:
                x = np.zeros(self.basis.shape[1], dtype=complex)  # the coordinates of v in [Q, z]
                if tops[end] >= 0.0:
                    x[:-1] = T.vector(end)
                else:
                    x[-1] = 1.0  # where h_B < 0 the support is 0, attained at z, off the basis
            # A_re v and A_im v, from band storage with zhbmv at O(n kd)
            P = [X @ x if self.band is None else _linalg("_fblas").zhbmv(X.shape[0] - 1, 1.0, X, x, lower=1) for X in self.G]
            v = x if self.basis is None else self.basis @ x
            Hv = (-1.0 if end else 1.0) * (c * P[0] + s * P[1])  # H(theta + pi) = -H(theta)
            a, b = self.scale_entries
            _checked_pair(supports[end], v, Hv, max(1.0, float(np.max(np.abs(c * a + s * b)))))
            return complex(np.vdot(v, P[0]).real, np.vdot(v, P[1]).real)

        return supports, point


def _angle_pairs(thetas: np.ndarray, real: bool):
    """(pairs, mirrors): the angles one reduction solves together, and those copied from a mirror image.

    Each pair (j, k) names the index j of an angle theta solved for its top
    end and the index k of theta + pi, taken from the same reduction, or
    None.  Only the uniform grid 2 pi j / K with K even holds both angles
    of a pair; any other array solves each angle alone.  A real A has
    H(-theta) = conj H(theta), so there h(-theta) = h(theta) and the point
    at -theta is the conjugate of the one at theta: each mirror (i, j)
    copies index j into index i = K - j (mod K).  Then the pairs need only
    the angles in [0, pi/2], and at pi/2, where -theta is theta + pi, the
    mirror gives the other end.
    """
    K = thetas.size
    if K % 2 or K < 4 or not np.array_equal(thetas, _angle_grid(K)):
        return [(j, None) for j in range(K)], []
    half = K // 2
    if not real:
        return [(j, j + half) for j in range(half)], []
    pairs, mirrors = [], []
    for j in range(half // 2 + 1):
        if 2 * j == half:
            pairs.append((j, None))
            mirrors.append((j + half, j))
        else:
            pairs.append((j, j + half))
            if j:
                mirrors += [(K - j, j), (half - j, j + half)]
    return pairs, mirrors


def _sweep(A, thetas: np.ndarray, vectors: bool):
    """Supports at ``thetas`` and, with ``vectors``, the boundary points v* A v (else None).

    H(theta) = cos(theta) A_re + sin(theta) A_im is the Hermitian part of
    e^{-i theta} A.  It is nonzero only where A or A* is, so the residue
    classes and half-bandwidth of A fix the solver of every angle: the
    support is the largest block support and the point that of the winning
    block.  The angles are solved in the pairs of ``_angle_pairs``, whose
    realness test is exact (no imaginary part of A is nonzero), so it reads
    a matrix read back from CSV as the one built in process.  The support
    comes from the same call in both modes.
    """
    M = _as_matrix(A)
    with np.errstate(over="ignore", invalid="ignore"):
        A_re, A_im = (M + M.conj().T) / 2.0, (M - M.conj().T) / 2j
    if not (np.all(np.isfinite(A_re)) and np.all(np.isfinite(A_im))):
        raise NumericError("Hermitian parts of the matrix overflow")
    classes, kd = _residue_classes(M)
    blocks = [_Block(M, A_re, A_im, idx, kd) for idx in classes]
    h = np.empty(thetas.size)
    points = np.empty(thetas.size, dtype=complex) if vectors else None
    pairs, mirrors = _angle_pairs(thetas, real=not M.imag.any())
    for first, second in pairs:
        c, s = np.cos(thetas[first]), np.sin(thetas[first])
        solved = [block.ends(c, s, second is not None) for block in blocks]
        for end, k in enumerate((first,) if second is None else (first, second)):
            j = int(np.argmax([supports[end] for supports, _ in solved]))  # a NaN wins and fails the check below
            h[k] = solved[j][0][end]
            if vectors:
                points[k] = solved[j][1](end)
    for i, j in mirrors:
        h[i] = h[j]
        if vectors:
            points[i] = np.conj(points[j])
    if not (np.all(np.isfinite(h)) and (points is None or np.all(np.isfinite(points)))):
        raise NumericError("support sweep produced non-finite values")
    return h, points


def _angles(thetas) -> np.ndarray:
    """Angles as a 1-d float array, each of them finite."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise UsageError("angles must be finite")
    return thetas


def support_function(A, thetas) -> np.ndarray:
    """Support of the numerical range in the directions e^{i theta}.

    h(theta) = lambda_max( (e^{-i theta} A + e^{i theta} A*) / 2 ).
    """
    return _sweep(A, _angles(thetas), vectors=False)[0]


def _angle_grid(n_angles: int) -> np.ndarray:
    """The angles 2 pi j / n_angles, j = 0 .. n_angles - 1, for an integer n_angles >= 3."""
    n_angles = _as_int(n_angles, "n_angles", 3)
    return 2.0 * np.pi * np.arange(n_angles) / n_angles


def boundary_points(A, n_angles: int = 360):
    """Boundary sweep of the numerical range.

    Returns a list of (theta, point, support) triples where point is the
    Rayleigh quotient of the top eigenvector of the rotated Hermitian
    part; these points lie on the boundary of the range and their convex
    hull approximates it from inside.
    """
    thetas = _angle_grid(n_angles)
    h, points = _sweep(A, thetas, vectors=True)
    return [(float(th), complex(p), float(s)) for th, p, s in zip(thetas, points, h)]


def _point_cloud(points) -> np.ndarray:
    """A nonempty, finite point cloud as a flat complex array."""
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise UsageError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise NumericError("points contain non-finite values")
    return pts


def _frame(*clouds):
    """(e, the clouds times 2^-e), for e one above the exponent of the largest |Re| or |Im|.

    Every scaled coordinate is below 1/2 and every modulus below 1.  The
    scaling rounds only a coordinate that lands below the normal range, so
    it is exact for subnormal clouds too.  No modulus of an unscaled point
    is taken, so a finite cloud up to the float limit keeps its geometry,
    and the geometry of 2^p times a cloud is 2^p times its own.
    """
    largest = max(max(float(np.max(np.abs(c.real))), float(np.max(np.abs(c.imag)))) for c in clouds)
    e = int(np.frexp(largest)[1]) + 1
    return e, [np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e) for c in clouds]


def convex_hull(points) -> np.ndarray:
    """Convex hull by the monotone chain, vertices counterclockwise.

    Degenerate inputs are handled: a single repeated point gives a
    one-vertex hull and collinear points a two-vertex hull.  Everything
    is taken in the exact frame of ``_frame``, so nothing can overflow
    and a hull of 2^p times a cloud is 2^p times its hull at any scale.
    Points are merged on a grid of spacing 1e-12 times the largest
    modulus, the scale, and sorted by their grid keys, so rounding noise
    below that spacing cannot reorder points along a near-vertical edge;
    the vertices returned are input points.
    """
    pts = _point_cloud(points)
    _, (z,) = _frame(pts)
    x, y = z.real.tolist(), z.imag.tolist()
    scale = float(np.max(np.abs(z))) or 1.0
    # dedup on a rounded grid
    merged = {}
    for i in range(pts.size):
        merged.setdefault((round(x[i] / (1e-12 * scale)), round(y[i] / (1e-12 * scale))), i)
    uniq = [merged[k] for k in sorted(merged)]
    if len(uniq) == 1:
        return pts[uniq]
    eps = 1e-12 * scale * scale

    def cross(o, a, b):
        return (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= eps:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(uniq)
    upper = half(uniq[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        hull = [uniq[0], uniq[-1]]
    return pts[hull]


@dataclass(frozen=True)
class HullPolygon:
    """Convex polygon given by counterclockwise vertices.

    Supports one- and two-vertex degenerate cases (a point, a segment).
    The vertices must be a nonempty, finite point cloud; its support
    function is that of the cloud, ``support_of(vertices, thetas)``.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = _point_cloud(self.vertices).copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def signed_distance(self, point: complex) -> float:
        """Distance to the boundary, positive inside and negative outside.

        It is taken on the vertices and the point in the exact frame of
        ``_frame``, so no product can overflow and the distance scales
        exactly with the polygon.  Edge i runs from vertex i to vertex
        i + 1, cyclically; a one-vertex polygon is its own edge.  The
        inside tolerance is relative to the largest vertex modulus.  The
        point is read as a point cloud of one, so a NaN or infinite point
        raises ``NumericError``.
        """
        p = _point_cloud(point)
        if p.size != 1:
            raise UsageError(f"signed_distance takes one point, got {p.size}")
        e, (p, a) = _frame(p, self.vertices)
        ab = np.roll(a, -1) - a
        ap = p - a
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(np.abs(ab) > 0, np.clip((ap * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0), 0.0)
        closest = a + t * ab
        d = float(np.ldexp(np.min(np.abs(p - closest)), e))
        if a.size < 3:
            return -d
        cross = ab.real * ap.imag - ab.imag * ap.real
        inside = bool(np.all(cross >= -1e-15 * float(np.max(np.abs(a))) ** 2))
        return d if inside else -d


def numerical_range_hull(A, n_angles: int = 360) -> HullPolygon:
    """Convex hull of a boundary sweep of the numerical range."""
    return HullPolygon(convex_hull([p for _, p, _ in boundary_points(A, n_angles)]))


@dataclass(frozen=True)
class DiscSpec:
    """Closed disc, for containment comparisons."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_complex(self.center, "center"))
        object.__setattr__(self, "radius", _as_number(self.radius, "radius"))
        if not (np.isfinite(self.center) and 0.0 <= self.radius < np.inf):
            raise UsageError(f"disc needs a finite center and a finite radius >= 0, got {self.center!r}, {self.radius!r}")

    def support(self, thetas) -> np.ndarray:
        return np.real(np.exp(-1j * _angles(thetas)) * self.center) + self.radius


@dataclass(frozen=True)
class EllipseSpec:
    """Closed elliptical region given by foci and full minor axis length.

    The full major axis satisfies major^2 = minor^2 + |f1 - f2|^2; a zero
    minor axis degenerates to the segment between the foci.
    """

    focus1: complex
    focus2: complex
    minor_axis: float

    def __post_init__(self):
        object.__setattr__(self, "focus1", _as_complex(self.focus1, "focus1"))
        object.__setattr__(self, "focus2", _as_complex(self.focus2, "focus2"))
        object.__setattr__(self, "minor_axis", _as_number(self.minor_axis, "minor_axis"))
        if not (np.isfinite(self.focus1) and np.isfinite(self.focus2) and 0.0 <= self.minor_axis < np.inf):
            raise UsageError("ellipse needs finite foci and a finite minor_axis >= 0")

    @property
    def center(self) -> complex:
        return (self.focus1 + self.focus2) / 2.0

    @property
    def major_axis(self) -> float:
        return float(np.hypot(self.minor_axis, abs(self.focus1 - self.focus2)))

    def support(self, thetas) -> np.ndarray:
        thetas = _angles(thetas)
        beta = np.angle(self.focus2 - self.focus1) if self.focus2 != self.focus1 else 0.0
        a_s = self.major_axis / 2.0
        b_s = self.minor_axis / 2.0
        rel = thetas - beta
        bulge = np.sqrt(a_s**2 * np.cos(rel) ** 2 + b_s**2 * np.sin(rel) ** 2)
        return np.real(np.exp(-1j * thetas) * self.center) + bulge


def ellipse_from_2x2(M) -> EllipseSpec:
    """Elliptical numerical range of a 2 x 2 matrix.

    Foci are the eigenvalues; the full minor axis is
    sqrt(trace(M* M) - |l1|^2 - |l2|^2), which vanishes exactly for
    normal matrices.
    """
    A = _as_matrix(M)
    if A.shape != (2, 2):
        raise UsageError(f"expected a 2 x 2 matrix, got {A.shape}")
    l1, l2 = np.linalg.eigvals(A)
    minor_sq = float(np.sum(np.abs(A) ** 2) - abs(l1) ** 2 - abs(l2) ** 2)
    minor_sq = max(0.0, minor_sq)
    return EllipseSpec(complex(l1), complex(l2), float(np.sqrt(minor_sq)))


def support_of(obj, thetas) -> np.ndarray:
    """Support function of a disc, an ellipse or a bare 1-d array of points.

    A hull polygon answers through its vertices, and a matrix through
    ``support_function``.
    """
    thetas = _angles(thetas)
    if isinstance(obj, (DiscSpec, EllipseSpec)):
        return obj.support(thetas)
    arr = np.asarray(obj)
    if arr.ndim != 1:
        raise UsageError(f"support_of takes a 1-d point cloud, a disc or an ellipse, got {type(obj).__name__} with ndim {arr.ndim}; sweep a matrix with support_function")
    # max of Re(e^{-i theta} p) one angle at a time: O(points) memory
    pts = _point_cloud(arr)
    return np.array([np.max(d.real * pts.real - d.imag * pts.imag) for d in np.exp(-1j * thetas)])


def _image_samples(f, n_angles: int) -> np.ndarray:
    """Values f(e^{i theta}) on the angle grid of the unit circle.

    ``f`` must evaluate elementwise on complex arrays, as a bi-polynomial
    symbol and ``partial(series_eval, coeffs)`` do.
    """
    return np.asarray(f(np.exp(1j * _angle_grid(n_angles))), dtype=complex)
