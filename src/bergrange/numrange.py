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
block.  A diagonal or zero matrix (half-bandwidth kd = 0) needs no
solver: its block keeps the diagonals of A_re and A_im alone, forms the
diagonal of H(theta) at every angle in one array, by the elementwise ops
of one angle, and its point is the diagonal entry A_ii at the first
largest entry of the diagonal of H(theta) (of -H(theta) at theta + pi).
A block whose kd >= 1 is small against its size (a Toeplitz truncation,
a weighted composition over a rotation) is reduced on its band by LAPACK
zhbtrd, which scipy.linalg.lapack does not wrap: it is called through the
pointer that scipy.linalg.cython_lapack exports, on a workspace each
block keeps.  Every LAPACK and BLAS routine comes from one of scipy's
extension modules _flapack, cython_lapack and cython_blas, which
``_linalg`` loads on the first sweep without importing the package
scipy.linalg.  Any other block is dense, and one column-pivoted QR of
[A, A*] gives its numerical rank k, the count of |R_ii| above n eps
|R_00|.  If k < n, the block is solved on the k dimensional space Q of
the leading columns: the support is max(h_B, 0) for B = Q* A Q, exact up
to 2 tau with tau = ||R_22||_F, the scale of a dense eigensolve's own
backward error.  A block whose bound could fail the residual check where
H(theta) nearly vanishes (a large matrix near a phase times a Hermitian
one) stays dense, as does a zero class of a banded matrix and every
block with k = n.  A dense or reduced block reduces its matrix to
tridiagonal form with zhetrd.  Every block then bisects its tridiagonal
form for one index with dstebz, except a 1 x 1 form (a one-index class
or a rank-one reduced block), which dstebz cannot take and whose one
entry is both its ends; the matrix or band is first multiplied by a
power of two that takes its entries below 1, which is exact, so 2^p A has
exactly 2^p times the supports of A, and which keeps huge entries from
overflowing.

A block of kd >= 1 is graded when its diagonal is one constant c and its
indices carry integer labels f with f(i) - f(j) = 1 at every nonzero
off-diagonal entry A_ij (a weighted shift, as in Tsai and Wu, Numerical ranges of
weighted shift matrices, Linear Algebra Appl. 435 (2011)).  Then D_t =
diag(e^{i t f}) gives D_t (A - cI) D_t* = e^{i t} (A - cI), so the range of
the block is exactly the disc about c of radius r = h(0) - Re c.  Both
tests read the exact entries, as the residue classes do, and the labels
are searched only on a block of at most 4 n nonzero off-diagonal
entries.  A graded block is solved once, at theta = 0 on its own path,
where its point p_0 passes the residual check below; at every angle its
support is Re(e^{-i theta} c) + r and its point c + e^{i theta} (p_0 -
c), the rotation negated at theta + pi, in one array expression.  Graded
and kd = 0 blocks are closed: they answer every angle at once, and a
sweep of closed blocks alone runs no angle loop.

H(theta + pi) = -H(theta), so one reduction gives two supports: index n
for theta and, as -lambda_min, index 1 for theta + pi.  On the uniform
grid 2 pi j / K with K even the sweep solves angle j with angle j + K/2
this way, on every kind of block that is not closed.  For a
real A, H(-theta) = conj H(theta), so the support at -theta is the one at
theta and the point its conjugate: the sweep copies them, and solves only
the angles in [0, pi/2], 91 reductions for K = 360.  Realness is the
exact test that no imaginary part is nonzero, and it reads a matrix from
CSV as the one built in process.  Any other angle array (K odd, or
arbitrary angles) takes the same reduction for the top end alone.  Each
end gets the same eigenvalue with and without its eigenvector, so
supports agree bit for bit between the two sweeps.

A range may also be rotation symmetric, which the zero pattern shows as
well.  With g the gcd of the offsets, let n = gcd |o / g - 1| over the
signed offsets o = i - j of the nonzero off-diagonal entries A_ij.  Where
the diagonal is exactly 0, D = diag(w^{floor(k / g)}), w = e^{2 pi i /
n}, gives D A D* = w A (the weighted-shift structure of Tsai and Wu
again), so h(theta + 2 pi / n) = h(theta), and the point there is w
times the one at theta.  On the uniform grid, with fold = gcd(n, K), the
sweep solves only the angles of one window [0, 2 pi / fold): in
antipodal pairs for odd fold, where theta + pi is a rotation of theta +
pi / fold, and for the top end alone for even fold, where theta + pi is
a rotation of theta.  Every other angle copies the support of its source
bit for bit, and its point is the source's, conjugated where the real
mirror maps it and turned by e^{2 pi i m / fold}; a quarter turn only
swaps and negates parts, so the copies are exact for fold 2 and 4.
``_angle_pairs`` lists the copies, real mirrors included, and every
consumer of a sweep (its supports and points, the wedge bound and the
grid margin below) reads them through ``_Sweep.spread``.  A sweep of
closed blocks alone takes no copies: it answers every angle at once.

Boundary points come in two phases.  The angle loop calls scipy's LAPACK
and numpy's elementwise ops alone, and takes an eigenvector only for the
block that wins an end: dstein and zunmqr on a dense or reduced block,
inverse iteration on a band.  After the loop each block turns the
eigenvectors it won into points in one batch, ``_Block.points``, in
chunks of ``_POINT_CHUNK`` entries per temporary, with scipy's zgemm
from cython_blas for its products.  numpy and scipy each load their own
OpenBLAS, whose threads keep spinning for a while after each call.  At
the default thread count a sweep that switched pools at every angle took
up to 30 times its one-thread time, and at n = 64 one that switched
twice per sweep still took 2 to 3 times.  Past the construction of its
blocks, a sweep calls scipy's BLAS alone.
Every such eigenvector v is checked against the full-size block of
H(theta), or of -H(theta) at theta + pi, before it gives the point
v* A v: ||(H v - lam v) / scale|| <= 1e-10 sqrt(n), with n the block
size.  Every block takes its scale by one rule, max(1, max |c a + s b|)
over a set of entry pairs (a, b) that it picks once: the band storage of
A_re and A_im for a banded block, and for a dense or reduced one the few
entries of A_re and A_im that can hold the maximum at some angle, from
``_scale_entries``.  Each set holds the largest entry of
H(theta) at every angle, so the scale is max(1, max_ij |H_ij(theta)|)
on every path.  Every path forms the product pair P = (A_re v, A_im v)
once and takes the rest from it: H v = c P[0] + s P[1], negated at
theta + pi, for the check, and the point Re(v* P[0]) + i Re(v* P[1]).
A banded block forms P from band storage, summed over its diagonals, at
O(n kd) per point, a reduced block as G x with G = (A_re [Q, z], A_im
[Q, z]), formed once, and x the coordinates of v in [Q, z], at O(n k),
and a dense block at O(n^2).

A sweep skips the solves that cannot change what it returns, by two
bounds on the support function h of a convex set (Johnson, SIAM J.
Numer. Anal. 15 (1978); Loisel and Maxwell, SIAM J. Matrix Anal. Appl. 39
(2018)).  Every point p of the range gives h(theta) >= Re(e^{-i theta}
p).  Between two angles theta' < theta'' less than pi apart, h(theta) <=
a h(theta') + b h(theta''), with a = sin(theta'' - theta) / sin(theta'' -
theta') and b = sin(theta - theta') / sin(theta'' - theta').  The second
serves full sweeps on the uniform grid 2 pi j / K, K >= 5, of two or more
looped blocks: the even pairs solve every block, and an odd pair reduces
a block only where its bound from the two neighbouring angles can still
win an end.  The first serves ``_grid_margin``, the minimum over the grid
of h minus a target's support that decides the checks' containment
claims: it solves every 8th pair and the last, with boundary points, then
each other pair at which that lower bound leaves the minimum within
reach.  Both bounds take one slack per sweep, 1e-10 sqrt(n) max |A_ij|,
the tolerance that the residual check grants every eigenpair, floored
at the smallest normal float, which stops all pruning on a subnormal
matrix.  They are taken times 2^-e in the frame of ``_frame``, so that
nothing overflows.  A skip never changes a support,
a point or a margin while each computed support lies within the slack of
the true one.

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
    """The extension module scipy.linalg.<name> (``_flapack``, ``cython_lapack`` or ``cython_blas``), loaded on first use.

    A module that is already in sys.modules, as after the caller's own
    import of scipy.linalg, is used as it is.  Any other is loaded from the
    directory of scipy.linalg, which ``find_spec`` finds by importing the
    small top-level scipy package alone.  The package scipy.linalg is not
    imported: its ``__init__`` costs about 0.25 s and 22 MiB, through
    scipy's array API layer, which imports numpy.testing, numpy.f2py and
    numpy.random, while these modules load in about 0.02 s.  The
    sys.modules entries that the load adds are removed again, so a later
    import of scipy.linalg.<name> by the caller loads the module through
    the import system, which binds it on the package; the interpreter keeps
    an extension module's first state, so that import exports these same
    routines and capsules, as scipy.linalg.lapack does.
    """
    import importlib.machinery
    import importlib.util
    import sys
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    directory = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, extensions).find_spec(full)
    if spec is None:
        raise ImportError(f"{full} is not in {directory}", name=full)
    before = set(sys.modules)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for added in set(sys.modules) - before:
        del sys.modules[added]
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
    ``_BandReduction`` (zhbtrd on a band), and every block of kd >= 1 ends
    here: dstebz bisects T for index n or index 1, so an end gets the same
    eigenvalue with or without its vector.  H is reduced as H * unit, with
    ``unit`` a power of two from ``_unit``, so that no entry can overflow
    the reduction or the bisection; that product is exact, and the
    eigenvalues are divided by it again.  A 1 x 1 T, which dstebz cannot
    take, is its own spectrum.  A band T whose e vanishes at some angle is
    bisected too: on a diagonal T dstebz returns exactly max(d) and min(d).

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
        if self.d.size == 1:
            w = self.d  # a 1 x 1 T, which dstebz cannot take, is its own spectrum
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


# The C prototypes of zhbtrd in scipy.linalg.cython_lapack, where the
# last typedef is double, and of zgemm in scipy.linalg.cython_blas; a
# capsule of any other signature is refused.
_ZHBTRD_SIGNATURE = (
    b"void (char *, char *, int *, int *, __pyx_t_double_complex *, int *, "
    b"__pyx_t_5scipy_6linalg_13cython_lapack_d *, __pyx_t_5scipy_6linalg_13cython_lapack_d *, "
    b"__pyx_t_double_complex *, int *, __pyx_t_double_complex *, int *)"
)
_ZGEMM_SIGNATURE = (
    b"void (char *, char *, int *, int *, int *, __pyx_t_double_complex *, __pyx_t_double_complex *, int *, "
    b"__pyx_t_double_complex *, int *, __pyx_t_double_complex *, __pyx_t_double_complex *, int *)"
)


def _capsule_function(module: str, name: str, signature: bytes):
    """The routine ``name`` as a ctypes function, taken from the capsule that scipy.linalg.<module> exports.

    The module is loaded through ``_linalg``, and the capsule must carry
    ``signature``, so that another ABI fails here instead of in LAPACK or
    BLAS.  Every argument is a pointer, and the call releases the GIL.
    """
    import ctypes
    capsule = _linalg(module).__pyx_capi__[name]
    found = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    if found != signature:
        raise ImportError(f"scipy.linalg.{module}.{name} has the signature {found!r}, not {signature!r}")
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count(b"*"))(get_pointer(capsule, found))


@lru_cache(maxsize=1)
def _zhbtrd():
    """LAPACK zhbtrd, which scipy.linalg.lapack does not wrap, loaded on first use."""
    return _capsule_function("cython_lapack", "zhbtrd", _ZHBTRD_SIGNATURE)


@lru_cache(maxsize=1)
def _zgemm():
    """BLAS zgemm from scipy.linalg.cython_blas, loaded on first use; that module adds about 30 KiB to a process, the f2py _fblas about 1 MiB."""
    return _capsule_function("cython_blas", "zgemm", _ZGEMM_SIGNATURE)


def _product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X by scipy's zgemm, so that a sweep's BLAS calls run in scipy's OpenBLAS alone.

    A C-ordered array is the Fortran transpose of itself, so zgemm forms
    (A X)^T = X^T A^T with no copy.
    """
    import ctypes
    A, X = np.ascontiguousarray(A), np.ascontiguousarray(X)
    (m, k), n = A.shape, X.shape[1]
    P = np.empty((m, n), dtype=complex)
    ints = np.array([n, m, k], dtype=np.intc)  # M, N and K of X^T A^T
    scalars = np.array([1.0, 0.0], dtype=complex)  # alpha and beta
    n_, m_, k_ = (ctypes.c_void_p(ints.ctypes.data + i * ints.itemsize) for i in range(3))
    alpha, beta = (ctypes.c_void_p(scalars.ctypes.data + i * scalars.itemsize) for i in range(2))
    x, a, p = (ctypes.c_void_p(Y.ctypes.data) for Y in (X, A, P))
    _zgemm()(ctypes.c_char_p(b"N"), ctypes.c_char_p(b"N"), n_, m_, k_, alpha, x, n_, a, k_, beta, p, n_)
    return P


class _BandReduction:
    """zhbtrd for one band block of half-bandwidth kd >= 1, with its workspace made once.

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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, assembled from its parts with no arithmetic, so that no signed zero or rounding moves."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


# The residual tolerance of every checked eigenpair, relative to its scale
# and to sqrt(n); a sweep's pruning slack is this tolerance on max |A_ij|.
_TOLERANCE = 1e-10


def _checked_columns(lam: np.ndarray, V: np.ndarray, HV: np.ndarray, scale: np.ndarray) -> None:
    """Raise ``NumericError`` unless every column v of V, an eigenvector of H for lam, has a small enough residual.

    Column k of ``HV`` is H v, and ``scale[k]`` is max(1, max_ij |H_ij|)
    for that column's H.  Each residual is divided by its scale before its
    norm is taken, so entries near the overflow threshold cannot overflow
    it, and must stay within 1e-10 sqrt(n) for H of size n.
    """
    residual = np.linalg.norm((HV - lam * V) / scale, axis=0)
    failed = np.flatnonzero(residual > _TOLERANCE * np.sqrt(V.shape[0]))
    if failed.size:
        k = failed[0]
        raise NumericError(f"eigenpair residual too large: {residual[k] * scale[k]:.3e}")


def _band_product(ab: np.ndarray, X: np.ndarray) -> np.ndarray:
    """H X for the Hermitian band matrix H in lower band storage ``ab`` (ab[d, j] = H[j + d, j]), at O(n kd) per column.

    The main diagonal counts by its real part alone, as in BLAS zhbmv.
    """
    n = X.shape[0]
    P = ab[0].real[:, None] * X
    for d in range(1, ab.shape[0]):
        P[d:] += ab[d, : n - d, None] * X[: n - d]
        P[: n - d] += ab[d, : n - d, None].conj() * X[d:]
    return P


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
    return x / np.sqrt(np.sum(x.real**2 + x.imag**2))  # the norm in elementwise ops, which call no BLAS


# Solver choice, timed per angle through _Block.ends on random complex
# Hermitian bands (n = 48..400 with kd = n/32..n/8, one BLAS thread, 2-core
# Xeon, scipy's OpenBLAS 0.3.30): at 16 kd = n the band's zhbtrd and
# bisection cost 0.7-0.9 times the dense zhetrd and bisection, on paired
# grids (two ends per reduction) and unpaired ones alike, and the two
# break even between 8 kd = n and 12 kd = n.  A block takes the band while
# _BAND_RATIO * kd <= n, which keeps a margin over that crossover.
_BAND_RATIO = 16


def _residue_classes(M: np.ndarray):
    """Index sets over which M is a direct sum, the half-bandwidth inside them, and the order of the rotation symmetry of its range.

    With g the gcd of the offsets |m - n| of the nonzero entries, every
    entry links two indices of one residue class mod g, and an offset d
    becomes d / g inside the class.  g < 2 leaves one class; a diagonal or
    zero matrix has half-bandwidth 0.

    The order is n = gcd |o / g - 1| over the signed offsets o = i - j of
    the nonzero off-diagonal entries M_ij, where the diagonal is exactly 0,
    and 1 where it is not.  Then D = diag(w^{floor(k / g)}), w = e^{2 pi i
    / n}, gives D M D* = w M, since every o / g is 1 mod n, so the range is
    invariant under z -> w z.  n = 0 (every o equal to g, or no entry at
    all) leaves it invariant under every rotation.
    """
    size = M.shape[0]
    rows, cols = np.nonzero(M)
    signed = np.flatnonzero(np.bincount(rows - cols + size - 1, minlength=2 * size - 1)) - (size - 1)
    offsets = np.flatnonzero(np.bincount(np.abs(signed), minlength=1))
    g = int(np.gcd.reduce(offsets))
    top = int(offsets[-1]) if offsets.size else 0
    order = 1 if 0 in signed else int(np.gcd.reduce(np.abs(signed // max(g, 1) - 1)))
    if g < 2:
        return [np.arange(size)], top, order
    return [np.arange(r, size, g) for r in range(g)], top // g, order


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
    if tau > 0.5 * _TOLERANCE * np.sqrt(n):
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
    lo = 0 everywhere and keeps every entry, and so does an all-zero block,
    whose entries are divided by 1.  The entries go in slices of
    4096, so that the temporaries stay small next to the block.
    """
    a, b = A_re.ravel(), A_im.ravel()
    largest = max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))) or 1.0
    hi, lo_max = np.empty(a.size), 0.0
    for i in range(0, a.size, 1 << 12):
        part = slice(i, i + (1 << 12))
        an, bn = _divided(a[part], largest), _divided(b[part], largest)
        sa, sb, ab = np.abs(an) ** 2, np.abs(bn) ** 2, an * bn.conj()
        hi[part] = h = np.sqrt((sa + sb) / 2.0 + np.hypot((sa - sb) / 2.0, ab.real))
        lo_max = max(lo_max, float(np.max(np.abs(ab.imag) / np.where(h > 0.0, h, 1.0))))
    keep = hi >= lo_max - 1e-12
    return (a, b) if keep.all() else (a[keep], b[keep])


def _grading(M: np.ndarray):
    """Integer labels f with f(i) - f(j) = 1 at every nonzero off-diagonal entry M_ij, or None.

    A depth-first search over the entries labels each connected set of
    indices from one root and checks every entry against the labels.  It
    runs only where M has at most 4 n nonzero off-diagonal entries, so a
    denser M pays one count.
    """
    n = M.shape[0]
    entries = M != 0
    np.fill_diagonal(entries, False)
    if np.count_nonzero(entries) > 4 * n:
        return None
    links = [[] for _ in range(n)]
    for i, j in zip(*(index.tolist() for index in np.nonzero(entries))):
        links[j].append((i, 1))
        links[i].append((j, -1))
    labels = [None] * n
    for root in (k for k in range(n) if labels[k] is None):
        labels[root], stack = 0, [root]
        while stack:
            k = stack.pop()
            for m, step in links[k]:
                if labels[m] is None:
                    labels[m] = labels[k] + step
                    stack.append(m)
                elif labels[m] != labels[k] + step:
                    return None
    return np.array(labels)


# The entries that each temporary of a block's point stage may hold (64
# KiB); at 2^14 the stage raised the peak memory of a 192 x 192 reduced
# sweep by 1 MiB.
_POINT_CHUNK = 1 << 12


def _chunks(columns: int, height: int):
    """Slices over ``columns`` columns of ``height`` entries each, of at most ``_POINT_CHUNK`` entries, or one column."""
    width = max(1, _POINT_CHUNK // max(height, 1))
    return [slice(i, i + width) for i in range(0, columns, width)]


class _Block:
    """One residue-class block of a sweep: what its solver and its boundary points read of A_re and A_im.

    Every block keeps one pair ``parts``, with H(theta) = c parts[0] + s
    parts[1], the power of two ``unit`` of its parts, and its
    ``diagonal``.  A kd = 0 block keeps as its parts the diagonals of A_re
    and A_im, and nothing more: it is closed.  Any other block keeps one
    ``reduce``, which takes H(theta) to tridiagonal form at ``unit``.  A
    block with a narrow band keeps its band storage and its own
    ``_BandReduction``.  Any other block keeps the Hermitian parts of B =
    Q* A Q, on the basis [Q, z] of ``_range_basis`` where that is smaller
    than the block, or else A_re and A_im, and is reduced by zhetrd.  ``G``
    is the pair whose products with an end's vector give P = (A_re v, A_im
    v): the band storage, A_re and A_im, or on a reduced block A_re [Q, z]
    and A_im [Q, z].  ``scale_entries`` holds the entry pairs (a, b) over
    which the residual check takes its scale max(1, max |c a + s b|): band
    storage for a band, ``_scale_entries`` of A_re and A_im otherwise.

    A block of kd >= 1 is graded when its diagonal is one constant
    ``center`` and ``_grading`` finds ``labels`` f, with f(i) - f(j) = 1 at
    every nonzero off-diagonal entry, both read exactly off its entries.  Then D_t =
    diag(e^{i t f}) gives D_t (A - center I) D_t* = e^{i t} (A - center I)
    for every t, so the range of the block is exactly the disc about the
    center of radius h(0) - Re center; a block that is not graded pays only
    the diagonal test, or one count of its entries.  A graded block and a
    kd = 0 block are ``closed``: ``closed_ends`` answers every angle at once.
    Any other block is solved angle by angle in ``ends``, and ``points``
    turns the eigenvectors of the ends it won into boundary points.
    """

    def __init__(self, M, A_re, A_im, idx, kd):
        whole = idx.size == M.shape[0]
        M, re, im = (X if whole else X[np.ix_(idx, idx)] for X in (M, A_re, A_im))
        self.band = self.basis = self.labels = None
        self.diagonal = np.diagonal(M)
        if kd == 0:
            self.parts = (np.diagonal(re).copy(), np.diagonal(im).copy())
        elif _BAND_RATIO * kd <= idx.size:
            # LAPACK lower band storage: band[d, j] = X[j + d, j]
            self.band = self.parts = self.scale_entries = self.G = np.zeros((2, kd + 1, idx.size), dtype=complex)
            for d in range(kd + 1):
                self.band[:, d, : idx.size - d] = [np.diagonal(re, -d), np.diagonal(im, -d)]
            self.start = np.random.default_rng(0).standard_normal(idx.size).astype(complex)
            self.reduce = _BandReduction(kd, idx.size)
        else:
            self.parts = self.G = (re, im)
            self.scale_entries, self.reduce = _scale_entries(re, im), _Tridiagonal.dense
            if (basis := _range_basis(M)) is not None:
                Q = basis[:, :-1]
                B = Q.conj().T @ M @ Q
                self.parts = ((B + B.conj().T) / 2.0, (B - B.conj().T) / 2j)
                self.basis, self.G = np.ascontiguousarray(basis), (re @ basis, im @ basis)
        self.unit = _unit(*self.parts)
        self.center = complex(self.diagonal[0])
        if kd > 0 and np.all(self.diagonal == self.center):
            self.labels = _grading(M)
        self.closed = kd == 0 or self.labels is not None

    def closed_ends(self, c: np.ndarray, s: np.ndarray):
        """Supports of a closed block at every pair (c, s), row 0 at theta and row 1 at theta + pi, and a function that gives the points of both rows.

        A graded block solves theta = 0 once, in ``ends``.  Its support is
        Re(e^{-i theta} center) + r, with r = h(0) - Re center, and its point
        center + e^{i theta} (p_0 - center), negated at theta + pi, with the
        rotation in the real ops of Python's complex product; ``points``
        checks p_0 when the points are asked for.  A kd = 0 block forms the
        diagonal of H(theta) at every pair from its parts, by the complex ops
        of one angle, so its supports max(d) and -min(d), d = unit H_ii, have
        the per-angle bits, and its points are the diagonal entries at the
        first argmax and argmin.
        """
        if self.labels is not None:
            (h0,), vector = self.ends(1.0, 0.0, False)
            radius, cr, ci = h0 - self.center.real, self.center.real, self.center.imag
            t = c * cr + s * ci  # Re(e^{-i theta} center)

            def points():
                (p0,) = self.points([(0, 1.0, 0.0, h0, vector(0))])
                dr, di = p0.real - cr, p0.imag - ci
                wr, wi = c * dr - s * di, c * di + s * dr  # e^{i theta} (p_0 - center)
                return np.array([_complex(cr + wr, ci + wi), _complex(cr - wr, ci - wi)])

            return np.array([t + radius, radius - t]), points
        H = (c[:, None] * self.parts[0] + s[:, None] * self.parts[1]).real  # row j: the diagonal of H(theta_j)
        d = H * self.unit
        supports = np.array([np.max(d, axis=1) / self.unit, -(np.min(d, axis=1) / self.unit)])
        return supports, lambda: self.diagonal[np.array([np.argmax(H, axis=1), np.argmin(H, axis=1)])]

    def ends(self, c, s, both: bool):
        """Supports of this block at theta and, with ``both``, at theta + pi, solved at theta itself, and a function that gives an end's eigenvector.

        H(theta + pi) = -H(theta), so end 1 is the top of -H(theta).  A
        block forms H(theta) from its parts and reduces it once for both
        ends, and bisects that one tridiagonal form for each; a reduced
        block's support is max(h_B, 0).  The function takes the end, 0 or
        1, and returns that end's eigenvector, as its coordinates x in
        [Q, z] on a reduced block.  It calls no BLAS, and a sweep calls it
        only for the block that wins an end.  A kd = 0 block has no ends:
        ``closed_ends`` answers it.
        """
        H = c * self.parts[0] + s * self.parts[1]
        T = self.reduce(H, self.unit)
        tops = [T.eigenvalue(end) for end in range(2 if both else 1)]
        supports = tops if self.basis is None else [float(np.maximum(lam, 0.0)) for lam in tops]  # a NaN stays NaN and wins the sweep's argmax

        def vector(end):
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
            return x

        return supports, vector

    def points(self, taken) -> np.ndarray:
        """The boundary points of the ends in ``taken``, a list of (end, c, s, lam, x) from ``ends``, each checked first.

        Each column's scale is max(1, max |c a + s b|) over
        ``scale_entries``, by the elementwise ops of one angle.  Each chunk
        of columns forms P = (A_re V, A_im V) once, as G X or over the band's
        diagonals, with V = X, or [Q, z] X on a reduced block, checks each v
        against H v = +-(c P[0] + s P[1]), and returns the points v* A v =
        Re(v* P[0]) + i Re(v* P[1]).
        """
        end, c, s, lam = (np.array(column) for column in list(zip(*taken))[:4])
        sign = np.where(end == 1, -1.0, 1.0)  # H(theta + pi) = -H(theta)
        a, b = (entries.ravel() for entries in self.scale_entries)
        scale = np.empty(len(taken))
        for k in _chunks(len(taken), a.size):
            scale[k] = np.max(np.abs(c[k, None] * a + s[k, None] * b), axis=1)
        scale = np.fmax(1.0, scale)
        points = np.empty(len(taken), dtype=complex)
        for k in _chunks(len(taken), self.diagonal.size):
            X = np.column_stack([x for *_, x in taken[k]])
            P = [_band_product(G, X) if self.band is not None else _product(G, X) for G in self.G]
            V = X if self.basis is None else _product(self.basis, X)
            _checked_columns(lam[k], V, sign[k] * (c[k] * P[0] + s[k] * P[1]), scale[k])
            points[k] = _complex(*(np.sum(V.real * Pk.real + V.imag * Pk.imag, axis=0) for Pk in P))
        return points


def _angle_pairs(thetas: np.ndarray, real: bool, order: int):
    """(pairs, copies, fold): the angles one reduction solves together, those copied from a solved one, and the fold of the copies.

    ``pairs`` holds two rows: the index j of an angle theta solved for its
    top end, and the index k of theta + pi, taken from the same reduction,
    or -1.  Only the uniform grid 2 pi j / K holds the angles that a pair or
    a copy relates; any other array, and K < 4, solves each angle alone.

    Two exact symmetries of the range give the copies.  A range invariant
    under the rotation by 2 pi / ``order`` (``_residue_classes``) is
    invariant under the rotation by 2 pi / fold, fold = gcd(order, K), which
    maps the grid onto itself: h(theta + 2 pi m / fold) = h(theta), and the
    point there is e^{2 pi i m / fold} times the one at theta.  So only a
    window of W = K / fold angles is solved.  With K even and fold odd, the
    pairs (j, j + K/2), j < W/2, fill it, since theta + pi is a rotation of
    theta + pi / fold; with fold even, theta + pi is a rotation of theta
    itself, and the angles j < W are solved for their top end alone.  A
    real A has H(-theta) = conj H(theta), so for K even h(-theta) =
    h(theta) and the point at -theta is the conjugate of the one at theta;
    then the pairs need only the first half of their span, and where -theta
    is theta + pi the copy gives the other end.

    ``copies`` holds four rows, the index i copied to, its source, the
    turns m and a flag: i holds the source's support, and its point is
    e^{2 pi i m / fold} times the source's, conjugated first where the flag
    is set.  A mirror is taken where one reaches i, so with fold 1, 2 or 4,
    whose turns are exact, the point at K - j is the conjugate of the one
    at j for every j; with fold 1 the copies are the real mirrors alone.
    """
    K = thetas.size
    if K < 4 or not np.array_equal(thetas, _angle_grid(K)):
        return np.array([np.arange(K), np.full(K, -1)]), np.zeros((4, 0), dtype=int), 1
    fold = int(np.gcd(order, K))
    width = K // fold
    both, mirror = K % 2 == 0 and fold % 2 == 1, real and K % 2 == 0
    span = width // 2 if both else width
    first = np.arange(span // 2 + 1 if mirror else span)
    second = first + K // 2 if both else np.full(first.size, -1)
    if both and mirror and span % 2 == 0:
        second[-1] = -1  # 2 j = span: the mirror of j is j + K/2
    ends = np.concatenate([first, second[second >= 0]])
    direct, mirrored, copied = np.full(width, -1), np.full(width, -1), np.ones(K, dtype=bool)
    direct[ends % width] = ends
    if mirror:
        mirrored[-ends % width] = ends
    copied[ends] = False
    target = np.flatnonzero(copied)
    source = mirrored[target % width]
    flip = source >= 0
    source[~flip] = direct[target[~flip] % width]
    turns = (target + np.where(flip, source, -source)) // width % fold
    return np.array([first, second]), np.array([target, source, turns, flip]), fold


def _turned(p: np.ndarray, turns: np.ndarray, fold: int) -> np.ndarray:
    """p e^{2 pi i turns / fold}, elementwise; a whole number of quarter turns only swaps and negates parts, which is exact."""
    x, y = p.real, p.imag
    quarter, q = 4 * turns % fold == 0, 4 * turns // fold % 4
    c, s = np.cos(2.0 * np.pi * turns / fold), np.sin(2.0 * np.pi * turns / fold)
    re = np.where(quarter, np.choose(q, [x, -y, -x, y]), c * x - s * y)
    im = np.where(quarter, np.choose(q, [y, x, -y, -x]), c * y + s * x)
    return _complex(re, im)


def _finite(*arrays) -> None:
    """Raise ``NumericError`` unless every entry of every array is finite."""
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise NumericError("support sweep produced non-finite values")


class _Sweep:
    """The blocks and angle pairs of one sweep, and the one step that solves a set of pairs.

    H(theta) = cos(theta) A_re + sin(theta) A_im is the Hermitian part of
    e^{-i theta} A.  It is nonzero only where A or A* is, so the residue
    classes and half-bandwidth of A fix the solver of every angle: the
    support is the largest block support and the point that of the winning
    block.  The angles are solved in the pairs of ``_angle_pairs``, and the
    others copied from them, by tests that read A exactly: realness (no
    imaginary part of A is nonzero) and the order of the rotation symmetry
    of ``_residue_classes``, so a matrix read back from CSV is swept as the
    one built in process.

    ``supports`` holds [block, end, pair]; end 1 of an unpaired angle is
    never read.  Closed blocks fill it at every pair at once, and ``solve``
    fills the looped blocks at the pairs it is given, and takes the
    eigenvector of each end such a block wins; ``points`` turns those into
    points, in one call per block.  Winners come from one argmax over the
    stacked supports, so a NaN wins and fails later.
    """

    def __init__(self, A, thetas: np.ndarray):
        self.M = M = _as_matrix(A)
        with np.errstate(over="ignore", invalid="ignore"):
            A_re, A_im = (M + M.conj().T) / 2.0, (M - M.conj().T) / 2j
        if not (np.all(np.isfinite(A_re)) and np.all(np.isfinite(A_im))):
            raise NumericError("Hermitian parts of the matrix overflow")
        classes, kd, order = _residue_classes(M)
        self.blocks = [_Block(M, A_re, A_im, idx, kd) for idx in classes]
        self.real = not M.imag.any()
        # closed blocks answer every angle at once: a sweep of them alone takes no copies
        looped = not all(block.closed for block in self.blocks)
        pairs, self.copies, self.fold = _angle_pairs(thetas, self.real, order if looped else 1)
        self.thetas = thetas
        self.first, self.second = pairs
        self.paired = self.second >= 0
        self.c, self.s = np.cos(thetas[self.first]), np.sin(thetas[self.first])
        self.supports = np.zeros((len(self.blocks), 2, self.first.size))
        self.closed = {}
        for b, block in enumerate(self.blocks):
            if block.closed:
                self.supports[b], self.closed[b] = block.closed_ends(self.c, self.s)
        self.looped = [b for b in range(len(self.blocks)) if b not in self.closed]
        self.taken = {b: {} for b in self.looped}  # (pair, end): (end, c, s, support, x) of each end a looped block won

    def slack(self) -> float:
        """1e-10 sqrt(n) max |A_ij|, floored at the smallest normal float: how far the pruning bounds let a computed support lie from the true one."""
        with np.errstate(over="ignore"):
            return max(_TOLERANCE * np.sqrt(self.M.shape[0]) * float(np.max(np.abs(self.M))), np.finfo(float).tiny)

    def solve(self, js, vectors: bool, bounds=None) -> None:
        """Solve the looped blocks at the pairs ``js``, and with ``vectors`` take the eigenvector of each end that such a block wins.

        With ``bounds`` [block, end, pair], upper bounds on the computed
        supports, each pair solves its blocks in decreasing order of their
        bound at end 0, then at end 1, and stops at an end once the best
        support solved there, closed blocks counted, exceeds every bound
        left.  The blocks left lose both ends; their supports read -inf, so
        that no argmax takes them.
        """
        for j in js:
            count = 2 if self.paired[j] else 1
            vector, left = {}, list(self.looped)
            for end in range(count):
                if bounds is not None:
                    left.sort(key=lambda b: -bounds[b, end, j])
                for b in list(left):
                    if bounds is not None and np.max(np.delete(self.supports[:, end, j], left), initial=-np.inf) > bounds[b, end, j]:
                        break
                    self.supports[b, :count, j], vector[b] = self.blocks[b].ends(self.c[j], self.s[j], self.paired[j])
                    left.remove(b)
            if left:
                self.supports[left, :, j] = -np.inf
            if vectors:
                for end, b in enumerate(np.argmax(self.supports[:, :count, j], axis=0)):
                    if b in vector:
                        self.taken[b][j, end] = (end, self.c[j], self.s[j], self.supports[b, end, j], vector[b](end))

    def wedge(self, js) -> np.ndarray:
        """Upper bounds [block, end, pair] on the computed supports at the pairs ``js`` of a uniform grid, from those of every other pair.

        An angle theta between its neighbours theta' and theta'', with
        Delta = theta'' - theta' < pi, has e^{i theta} = a e^{i theta'} + b
        e^{i theta''} for a = sin(theta'' - theta) / sin Delta > 0 and b =
        sin(theta - theta') / sin Delta > 0.  A support function is
        sublinear, so h(theta) <= a h(theta') + b h(theta''), and with every
        computed support within the slack of the true one, that sum plus
        (a + b + 1) slack bounds the computed support at theta.  A neighbour
        at a pair of ``js``, or copied from one, counts as +inf.  The sums
        are taken times 2^-e, in the frame of ``_frame`` of the other pairs'
        supports, so that none overflows.
        """
        e = _frame(np.delete(self.supports, js, axis=2).ravel())[0]
        known = self.supports.copy()
        known[:, :, js] = np.inf
        h = np.ldexp(self.spread(known), -e)  # [block, angle]
        before, after = np.roll(self.thetas, 1), np.roll(self.thetas, -1)
        before[0] -= 2.0 * np.pi
        after[-1] += 2.0 * np.pi
        a, b = np.sin(after - self.thetas) / np.sin(after - before), np.sin(self.thetas - before) / np.sin(after - before)
        with np.errstate(over="ignore"):
            bound = np.ldexp(a * np.roll(h, 1, axis=1) + b * np.roll(h, -1, axis=1) + (a + b + 1.0) * np.ldexp(self.slack(), -e), e)
        bounds = np.full(self.supports.shape, np.inf)
        bounds[:, 0], bounds[:, 1, self.paired] = bound[:, self.first], bound[:, self.second[self.paired]]
        return bounds

    def points(self, js) -> np.ndarray:
        """The points at the pairs ``js``, in increasing order, rows end 0 and end 1, from the ends their winners took.

        Each block that won an end gives its points in one ``points`` call,
        which must see its ends pair by pair, end 0 before end 1, the order
        in which the winners are assigned.
        """
        win = np.argmax(self.supports[:, :, js], axis=0)
        win[1, ~self.paired[js]] = -1
        points = np.empty((2, len(js)), dtype=complex)
        for b, block in enumerate(self.blocks):
            won = win == b
            if b in self.closed and won.any():
                points[won] = self.closed[b]()[:, js][won]
            elif won.any():
                taken = self.taken[b]
                points.T[won.T] = block.points([taken.pop(key) for key in sorted(taken)])
        return points

    def tops(self) -> np.ndarray:
        """The winning support at each end of every pair, rows end 0 and end 1."""
        return np.take_along_axis(self.supports, np.argmax(self.supports, axis=0)[None], axis=0)[0]

    def spread(self, rows: np.ndarray, points: bool = False) -> np.ndarray:
        """Values at every angle from ``rows`` [..., end, pair]: each end at its angle, and at each copy its source's value, as a point with ``points``.

        A point is conjugated where its copy mirrors and then turned by
        its copy's rotation; any other value is copied bit for bit.
        """
        out = np.empty(rows.shape[:-2] + self.thetas.shape, dtype=rows.dtype)
        out[..., self.first], out[..., self.second[self.paired]] = rows[..., 0, :], rows[..., 1, self.paired]
        target, source, turns, flip = self.copies
        values = out[..., source]
        out[..., target] = _turned(np.where(flip, np.conj(values), values), turns, self.fold) if points else values
        return out


def _sweep(A, thetas: np.ndarray, vectors: bool):
    """Supports at ``thetas`` and, with ``vectors``, the boundary points v* A v (else None).

    The support comes from the same call in both modes.  Closed blocks
    answer every pair at once; the angle loop runs only if some block is
    not closed.  On the uniform grid of ``_angle_grid`` with K >= 5, where
    the neighbours of an angle lie less than pi apart, a sweep with two or
    more looped blocks solves each of them at the even pairs, and at each
    odd pair only the blocks that ``_Sweep.wedge`` does not rule out; any
    other sweep solves every block at every pair.  After the loop each
    block that won an end gives its points in one ``points`` call.
    """
    sweep = _Sweep(A, thetas)
    pairs, K = np.arange(sweep.first.size), thetas.size
    prune = len(sweep.looped) > 1 and K >= 5 and np.array_equal(thetas, _angle_grid(K))
    if sweep.looped:
        sweep.solve(pairs[::2] if prune else pairs, vectors)
    if prune:
        sweep.solve(pairs[1::2], vectors, sweep.wedge(pairs[1::2]))
    h = sweep.spread(sweep.tops())
    points = sweep.spread(sweep.points(pairs), points=True) if vectors else None
    _finite(h, *([] if points is None else [points]))
    return h, points


def _grid_margin(A, target: np.ndarray, n_angles: int) -> float:
    """min over the grid ``_angle_grid(n_angles)`` of h_A - target, with the bits of a full sweep's, from the angle pairs that can hold it.

    Each point p of the range gives h_A(theta) >= Re(e^{-i theta} p), and
    so does each copy of a point that ``_Sweep.spread`` makes (conj(p) for
    a real A, its rotations for a symmetric one).  The largest of them,
    ``support_of`` the points found so far, less 2 slack, bounds the
    computed support at theta from below.  The sweep solves every 8th pair
    and the last, with boundary points, then, in one batch per round, each
    other pair at one of whose angles (theta, theta + pi and their copies)
    that bound minus the target does not exceed the least h_A - target so
    far.  The pairs left cannot hold the minimum.  A sweep of closed blocks
    alone reads every angle from ``closed_ends``, with no points.  The
    bounds are taken times 2^-e, in the frame of ``_frame`` of the points,
    supports and target.
    """
    sweep = _Sweep(A, _angle_grid(n_angles))
    P = sweep.first.size
    owner = sweep.spread(np.tile(np.arange(P), (2, 1)))  # the pair that gives each angle
    solved = np.full(P, not sweep.looped)
    # sorted pair indices by flatnonzero: np.unique imports numpy.ma, about 10 ms, on its first call
    batch = np.flatnonzero((np.arange(P) % 8 == 0) | (np.arange(P) == P - 1)) if sweep.looped else []
    found, slack = np.zeros((2, P), dtype=complex), sweep.slack()
    while len(batch):
        sweep.solve(batch, vectors=True)
        solved[batch] = True
        found[:, batch] = sweep.points(batch)
        h, known = sweep.spread(sweep.tops()), solved[owner]
        cloud = sweep.spread(found, points=True)[known]
        _finite(h[known], cloud)
        e, (p, h_known, t) = _frame(cloud, h[known], target)
        unknown = np.flatnonzero(~known)
        low = support_of(p, sweep.thetas[unknown])
        reach = low - t.real[unknown] - 2.0 * np.ldexp(slack, -e) <= np.min(h_known.real - t.real[known])
        batch = np.flatnonzero(np.bincount(owner[unknown[reach]], minlength=P))
    h, known = sweep.spread(sweep.tops()), solved[owner]
    _finite(h[known])
    return float(np.min(h[known] - target[known]))


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
        """Re(e^{-i theta} center) + sqrt(a^2 cos^2 + b^2 sin^2) of theta - beta, for the semi-axes a, b and the major-axis angle beta.

        The semi-axes are squared times 2^-e, with 2^e above the larger of
        them, and the root is multiplied by 2^e again; both products are
        exact, so no semi-axis up to the float limit overflows its square.
        """
        thetas = _angles(thetas)
        beta = np.angle(self.focus2 - self.focus1) if self.focus2 != self.focus1 else 0.0
        a_s = self.major_axis / 2.0
        b_s = self.minor_axis / 2.0
        e = int(np.frexp(max(a_s, b_s))[1])
        a_s, b_s = np.ldexp(a_s, -e), np.ldexp(b_s, -e)
        rel = thetas - beta
        bulge = np.ldexp(np.sqrt(a_s**2 * np.cos(rel) ** 2 + b_s**2 * np.sin(rel) ** 2), e)
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
    # max of Re(e^{-i theta} p) over slices of angles, at most _POINT_CHUNK entries per temporary
    pts = _point_cloud(arr)
    d = np.exp(-1j * thetas)
    h = np.empty(thetas.size)
    for k in _chunks(thetas.size, pts.size):
        h[k] = np.max(d.real[k, None] * pts.real - d.imag[k, None] * pts.imag, axis=1)
    return h


def _image_samples(f, n_angles: int) -> np.ndarray:
    """Values f(e^{i theta}) on the angle grid of the unit circle.

    ``f`` must evaluate elementwise on complex arrays, as a bi-polynomial
    symbol and ``partial(series_eval, coeffs)`` do.
    """
    return np.asarray(f(np.exp(1j * _angle_grid(n_angles))), dtype=complex)
