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
diagonal or zero matrix) is solved by the banded LAPACK routine zhbevx,
for the top index only; where it needs a boundary point, the eigenvector
comes from inverse iteration on the band.  Any other block is dense, and
one column-pivoted QR of [A, A*] gives its numerical rank k, the count of
|R_ii| above n eps |R_00|.  If k < n, the block is solved on the k
dimensional space Q of the leading columns: the support is max(h_B, 0)
for B = Q* A Q, exact up to 2 tau with tau = ||R_22||_F, the scale of a
dense eigensolve's own backward error.  A block whose bound could fail
the residual check where H(theta) nearly vanishes (a large matrix near a
phase times a Hermitian one) stays dense, as does a zero block and every
block with k = n: these go to the dense zheevr, for the top index only.
Each solver gives the same eigenvalue with and without the eigenvector,
so supports agree bit for bit between the two sweeps.

Every eigenvector v is checked against the full-size block of H(theta)
before it gives a point: ||(H v - lam v) / scale|| <= 1e-10 sqrt(n), with
scale = max(1, max_ij |H_ij(theta)|) and n the block size.  Only a dense
block forms H(theta), at O(n^2) per angle.  A reduced block takes H v
from A_re Q and A_im Q, formed once, at O(n k) per angle, and its point
as y* B y (z* A z where h_B < 0); its scale is the exact maximum over the few entries that can
hold it at some angle, picked once per block by ``_scale_entries``.  A
banded block takes H v and the point from band storage at O(n kd) per
angle, and its scale is the largest band entry, which is the largest
entry of H(theta) for a Hermitian band.  Only the winning block of an
angle computes its point.

Reference shapes (discs, ellipses, polygons, sampled image hulls) share a
common support-function interface so containment can be decided by
comparing supports on an angle grid, which is exact for convex sets up to
grid resolution and immune to the sagging of inscribed polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bergrange.core import NumericError, UsageError, _as_complex, _as_int, _as_matrix, _as_number

__all__ = [
    "hermitian_extreme_eig",
    "support_function",
    "boundary_points",
    "convex_hull",
    "HullPolygon",
    "numerical_range_hull",
    "hull_hausdorff",
    "DiscSpec",
    "EllipseSpec",
    "ellipse_from_2x2",
    "support_of",
    "shape_containment",
    "regular_polygon",
    "sample_image_hull",
]


@lru_cache(maxsize=64)
def _zheevr_lwork(n: int) -> int:
    """zheevr's optimal workspace for an n x n matrix, queried once per size."""
    from scipy.linalg.lapack import zheevr_lwork  # here so `build` never pays for loading scipy.linalg
    return int(zheevr_lwork(n, lower=1)[0].real)


def _eigpair(H: np.ndarray, index: int, vectors: bool = True):
    """Eigenvalue ``index`` (ascending) of a Hermitian H, with ``vectors`` also its checked eigenvector.

    zheevr bisects for the one eigenvalue with or without the vector, so
    sweeps with and without vectors return identical supports.
    """
    from scipy.linalg.lapack import zheevr
    w, z, _, _, info = zheevr(H, compute_v=int(vectors), range="I", lower=1, il=index + 1, iu=index + 1, lwork=_zheevr_lwork(H.shape[0]))
    if info != 0:
        raise NumericError(f"Hermitian eigensolver failed (LAPACK info {info})")
    if not vectors:
        return float(w[0]), None
    v = z[:, 0]
    return _checked_pair(float(w[0]), v, H @ v, max(1.0, float(np.max(np.abs(H)))))


def _checked_pair(lam: float, v: np.ndarray, Hv: np.ndarray, scale: float):
    """(lam, v), once the residual of H v = lam v is small enough to trust.

    ``Hv`` is H v and ``scale`` is max(1, max_ij |H_ij|).  The residual is
    divided by the scale before its norm is taken, so entries near the
    overflow threshold cannot overflow it, and must stay within
    1e-10 sqrt(n) for H of size n.
    """
    residual = float(np.linalg.norm((Hv - lam * v) / scale))
    if residual > 1e-10 * np.sqrt(v.size):
        raise NumericError(f"eigenpair residual too large: {residual * scale:.3e}")
    return lam, v


def _band_top(ab: np.ndarray) -> float:
    """Top eigenvalue of the Hermitian band matrix in LAPACK lower band storage ``ab``.

    zhbevx reduces the band to tridiagonal form and bisects for the one
    eigenvalue; a boundary sweep takes the eigenvector from ``_band_vector``,
    so both sweeps get the same eigenvalue from the same call.
    """
    from scipy.linalg.lapack import zhbevx
    n = ab.shape[1]
    w, _, m, _, info = zhbevx(ab, 0.0, 0.0, n, n, compute_v=0, range=2, lower=1)
    if info != 0 or m != 1:
        raise NumericError(f"Hermitian band eigensolver failed (LAPACK info {info}, {m} eigenvalues)")
    return float(w[0])


def _band_vector(ab: np.ndarray, lam: float, start: np.ndarray) -> np.ndarray:
    """Unit eigenvector for the top eigenvalue ``lam`` of the Hermitian band matrix ``ab`` (lower band storage).

    Two steps of inverse iteration from ``start``, shifted to lam + n eps on
    the matrix scaled to unit largest entry: one band LU factorization and
    two solves, O(n kd^2), where the eigenvector from zhbevx costs O(n^2)
    at kd = 1 and O(n^2 kd) beyond.  The shift lies within n eps of the top
    of the spectrum, so each step shrinks the other eigencomponents by about
    n eps over their gap; a top eigenvalue multiple to that scale gives a
    vector of its eigenspace, which is just as good a support point.  The
    two steps grow the vector by at most about 1 / eps^2, far from
    overflow, so it is normalized once.
    """
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    kd, n = ab.shape[0] - 1, ab.shape[1]
    scale = float(np.max(np.abs(ab))) or 1.0
    # LAPACK general band storage with kd rows for the fill-in: lu[2 kd + i - j, j] = X[i, j]
    lu = np.zeros((3 * kd + 1, n), dtype=complex)
    lu[2 * kd :] = ab / scale
    for d in range(1, kd + 1):
        lu[2 * kd - d, d:] = lu[2 * kd + d, : n - d].conj()
    lu[2 * kd] -= lam / scale + n * np.finfo(float).eps
    lu, piv, info = zgbtrf(lu, kd, kd)
    if info != 0:
        raise NumericError(f"band inverse iteration failed (LAPACK info {info})")
    x = start
    for _ in range(2):
        x, _ = zgbtrs(lu, kd, kd, x, piv)
    return x / np.linalg.norm(x)


def hermitian_extreme_eig(H, which: str = "max", hermitian_tol: float = 1e-12):
    """Extreme eigenpair of a Hermitian matrix.

    Returns (eigenvalue, eigenvector).  The input must be Hermitian up to
    ``hermitian_tol`` times its magnitude; the residual of the returned
    pair is verified so a silent LAPACK failure cannot leak through.
    """
    M = _as_matrix(H)
    scale = max(1.0, float(np.max(np.abs(M))))
    dev = float(np.max(np.abs(M - M.conj().T)))
    if dev > hermitian_tol * scale:
        raise UsageError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    if which not in ("max", "min"):
        raise UsageError(f"which must be 'max' or 'min', got {which!r}")
    return _eigpair((M + M.conj().T) / 2.0, M.shape[0] - 1 if which == "max" else 0)


# Solver choice, from the top eigenvalue of random Hermitian band matrices
# (n = 48..400, one BLAS thread, 2-core Xeon, OpenBLAS 0.3.31): zhbevx
# beats zheevr while _BAND_RATIO * kd <= n and loses from about 10 kd = n.
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
    """(Q, z): an orthonormal basis Q of the numerical range(M) + range(M*) and a unit z orthogonal to it, or None.

    One column-pivoted QR of X = [M, M*] gives the rank k, the count of
    |R_ii| above n eps |R_00|; Q is the first k columns of its Q factor and
    z the next one.  With P = Q Q*, tau = ||R_22||_F = ||(I - P) X||_F
    bounds ||(I - P) M|| and ||M (I - P)||, and M - P M P = (I - P) M +
    P M (I - P), so each support of M is within 2 tau of max(h_B, 0) for
    B = Q* M Q, whose 0 is attained at z.

    M stays dense, and None is returned, if k = 0, if k = n, or if tau
    exceeds half of 1e-10 sqrt(n): a reduced pair misses H(theta) v = lam v
    by up to tau, and the residual check's tolerance falls to 1e-10 sqrt(n)
    where H(theta) is small, as for a large M near a phase times a
    Hermitian matrix.
    """
    from scipy.linalg import qr  # here so `build` never pays for loading scipy.linalg
    n = M.shape[0]
    X = np.vstack([M.T, M.conj()]).T  # [M, M*] in Fortran order, which the QR overwrites without a copy
    Q, R, _ = qr(X, overwrite_a=True, pivoting=True)
    d = np.abs(np.diag(R))
    k = int(np.count_nonzero(d > n * np.finfo(float).eps * d[0]))
    if k == 0 or k == n:
        return None
    R[k:] /= d[0]  # rows k.. of R are [0, R_22], scaled in place so that a huge M cannot overflow the norm
    tau = d[0] * float(np.linalg.norm(R[k:]))
    return None if tau > 0.5e-10 * np.sqrt(n) else (Q[:, :k], Q[:, k])


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
        an, bn = a[part] / largest, b[part] / largest
        sa, sb, ab = np.abs(an) ** 2, np.abs(bn) ** 2, an * bn.conj()
        hi[part] = h = np.sqrt((sa + sb) / 2.0 + np.hypot((sa - sb) / 2.0, ab.real))
        lo_max = max(lo_max, float(np.max(np.abs(ab.imag) / np.where(h > 0.0, h, 1.0))))
    keep = hi >= lo_max - 1e-12
    return a[keep], b[keep]


class _Block:
    """One residue-class block of a sweep: its parts of A, A_re, A_im and its solver.

    A block with a narrow band is solved on the band.  Any other block is
    solved on the basis Q of ``_range_basis`` where that is smaller than
    the block, as B(theta) = Q* H(theta) Q, and otherwise dense.  Each
    eigenvector is checked against the block of H(theta); the banded and
    reduced solvers take H(theta) v and max_ij |H_ij(theta)| from what
    they store here, so neither forms H(theta).
    """

    def __init__(self, M, A_re, A_im, idx, kd):
        whole = idx.size == M.shape[0]
        self.M, self.re, self.im = (X if whole else X[np.ix_(idx, idx)] for X in (M, A_re, A_im))
        self.n = idx.size
        self.band = self.basis = basis = None
        if _BAND_RATIO * kd <= self.n:
            # LAPACK lower band storage: band[d, j] = X[j + d, j]
            self.band = np.zeros((2, kd + 1, self.n), dtype=complex)
            for d in range(kd + 1):
                self.band[:, d, : self.n - d] = [np.diagonal(self.re, -d), np.diagonal(self.im, -d)]
            self.start = np.random.default_rng(0).standard_normal(self.n).astype(complex)
        else:
            basis = _range_basis(self.M)
        if basis is not None:
            Q, z = basis
            B = Q.conj().T @ self.M @ Q
            self.reduced = np.stack([(B + B.conj().T) / 2.0, (B - B.conj().T) / 2j])
            # a vector v = [Q, z] u has H(theta) v = (c G[0] + s G[1]) u and v* A v = u* B_z u
            self.basis = np.column_stack([Q, z])
            self.B_z = self.basis.conj().T @ self.M @ self.basis
            self.G = np.stack([self.re @ self.basis, self.im @ self.basis])
            self.scale_entries = _scale_entries(self.re, self.im)

    def top(self, c, s, vectors: bool):
        """Top eigenvalue of this block of H(theta) and, with ``vectors``, its eigenvector checked against H(theta).

        The eigenvector goes back as its coordinates u in [Q, z] on a
        reduced block and as itself on any other; ``point`` reads either.
        """
        if self.band is not None:
            ab = c * self.band[0] + s * self.band[1]
            lam = _band_top(ab)
            if not vectors:
                return lam, None
            from scipy.linalg.blas import zhbmv
            v = _band_vector(ab, lam, self.start)
            # ab is this block of H(theta) in band storage: H v at O(n kd), and max |ab| = max_ij |H_ij(theta)|
            return _checked_pair(lam, v, zhbmv(ab.shape[0] - 1, 1.0, ab, v, lower=1), max(1.0, float(np.max(np.abs(ab)))))
        if self.basis is None:
            return _eigpair(c * self.re + s * self.im, self.n - 1, vectors)
        k = self.reduced.shape[1]
        lam, y = _eigpair(c * self.reduced[0] + s * self.reduced[1], k - 1, vectors)
        support = float(np.maximum(lam, 0.0))  # a NaN stays NaN and wins the sweep's argmax
        if not vectors:
            return support, None
        u = np.zeros(k + 1, dtype=complex)
        if lam >= 0.0:
            u[:k] = y
        else:
            u[k] = 1.0  # where h_B < 0 the support is 0, attained at z, off the basis
        a, b = self.scale_entries
        Hv = c * (self.G[0] @ u) + s * (self.G[1] @ u)
        _checked_pair(support, self.basis @ u, Hv, max(1.0, float(np.max(np.abs(c * a + s * b)))))
        return support, u

    def point(self, x) -> complex:
        """The boundary point v* A v of the eigenvector ``top`` returned as ``x``."""
        if self.band is not None:
            from scipy.linalg.blas import zhbmv  # A_re v and A_im v from the band storage, at O(n kd)
            re_x, im_x = (zhbmv(X.shape[0] - 1, 1.0, X, x, lower=1) for X in self.band)
            return complex(np.vdot(x, re_x).real, np.vdot(x, im_x).real)
        return complex(x.conj() @ ((self.M if self.basis is None else self.B_z) @ x))


def _sweep(A, thetas: np.ndarray, vectors: bool):
    """Supports at ``thetas`` and, with ``vectors``, the boundary points v* A v (else None).

    H(theta) = cos(theta) A_re + sin(theta) A_im is the Hermitian part of
    e^{-i theta} A.  It is nonzero only where A or A* is, so the residue
    classes and half-bandwidth of A fix the solver of every angle: the
    support is the largest block support and the point that of the winning
    block.  The support comes from the same call in both modes.
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
    for k, th in enumerate(thetas):
        c, s = np.cos(th), np.sin(th)
        tops = [block.top(c, s, vectors) for block in blocks]
        j = int(np.argmax([lam for lam, _ in tops]))  # a NaN wins and fails the check below
        (h[k], x), win = tops[j], blocks[j]
        if vectors:
            points[k] = win.point(x)
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


def convex_hull(points) -> np.ndarray:
    """Convex hull by the monotone chain, vertices counterclockwise.

    Degenerate inputs are handled: a single repeated point gives a
    one-vertex hull and collinear points a two-vertex hull.  Nearly
    coincident points are merged at 1e-12 relative to the spread.
    """
    pts = _point_cloud(points)
    scale = max(1.0, float(np.max(np.abs(pts))))
    # dedup on a rounded grid
    merged = {}
    for p in pts:
        key = (round(p.real / (1e-12 * scale)), round(p.imag / (1e-12 * scale)))
        merged.setdefault(key, p)
    uniq = sorted(merged.values(), key=lambda p: (p.real, p.imag))
    if len(uniq) == 1:
        return np.array(uniq, dtype=complex)
    eps = 1e-12 * scale * scale

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

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
    return np.array(hull, dtype=complex)


@dataclass(frozen=True)
class HullPolygon:
    """Convex polygon given by counterclockwise vertices.

    Supports one- and two-vertex degenerate cases (a point, a segment).
    The vertices must be a nonempty, finite point cloud.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = _point_cloud(self.vertices).copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_points(cls, points) -> "HullPolygon":
        return cls(convex_hull(points))

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    def support(self, thetas) -> np.ndarray:
        return support_of(self.vertices, thetas)

    def _edges(self):
        v = self.vertices
        if v.size == 1:
            return np.array([v[0]]), np.array([v[0]])
        return v, np.roll(v, -1)

    def signed_distance(self, point: complex) -> float:
        """Distance to the boundary, positive inside and negative outside."""
        p = complex(point)
        a, b = self._edges()
        ab = b - a
        ap = p - a
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(np.abs(ab) > 0, np.clip((ap * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0), 0.0)
        closest = a + t * ab
        d = float(np.min(np.abs(p - closest)))
        if self.vertices.size < 3:
            return -d
        cross = ab.real * ap.imag - ab.imag * ap.real
        inside = bool(np.all(cross >= -1e-15 * max(1.0, float(np.max(np.abs(self.vertices)))) ** 2))
        return d if inside else -d

    def contains(self, point: complex, tol: float = 0.0) -> bool:
        return self.signed_distance(point) >= -tol

    def boundary_samples(self, n: int = 1024) -> np.ndarray:
        """Roughly arc-length-uniform samples along the closed boundary."""
        n = _as_int(n, "n", 1)
        v = self.vertices
        if v.size == 1:
            return np.repeat(v, n)
        a, b = self._edges()
        if v.size == 2:
            a, b = np.array([v[0]]), np.array([v[1]])
        lengths = np.abs(b - a)
        total = float(np.sum(lengths))
        if total == 0.0:
            return np.repeat(v[:1], n)
        s = np.linspace(0.0, total, n, endpoint=False)
        cuts = np.concatenate([[0.0], np.cumsum(lengths)])
        idx = np.clip(np.searchsorted(cuts, s, side="right") - 1, 0, lengths.size - 1)
        local = (s - cuts[idx]) / lengths[idx]
        return a[idx] + local * (b[idx] - a[idx])


def numerical_range_hull(A, n_angles: int = 360) -> HullPolygon:
    """Convex hull of a boundary sweep of the numerical range."""
    pts = [p for _, p, _ in boundary_points(A, n_angles)]
    return HullPolygon.from_points(pts)


def _distance_to_hull(p: complex, hull: HullPolygon) -> float:
    return max(0.0, -hull.signed_distance(p))


def hull_hausdorff(a: HullPolygon, b: HullPolygon) -> float:
    """Hausdorff distance between two convex polygons (as filled sets).

    The distance-to-a-convex-set function is convex, so each directed
    distance is attained at a vertex.
    """
    if not isinstance(a, HullPolygon):
        a = HullPolygon.from_points(a)
    if not isinstance(b, HullPolygon):
        b = HullPolygon.from_points(b)
    d_ab = max(_distance_to_hull(complex(p), b) for p in a.vertices)
    d_ba = max(_distance_to_hull(complex(p), a) for p in b.vertices)
    return max(d_ab, d_ba)


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

    def boundary(self, n: int = 256) -> np.ndarray:
        phi = _angle_grid(n)
        beta = np.angle(self.focus2 - self.focus1) if self.focus2 != self.focus1 else 0.0
        a_s = self.major_axis / 2.0
        b_s = self.minor_axis / 2.0
        return self.center + np.exp(1j * beta) * (a_s * np.cos(phi) + 1j * b_s * np.sin(phi))


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
    """Support function of any of the shapes handled by this module.

    Accepts matrices / truncations (boundary sweep), hull polygons,
    discs, ellipses, or a bare 1-d array of points.
    """
    thetas = _angles(thetas)
    if isinstance(obj, (HullPolygon, DiscSpec, EllipseSpec)):
        return obj.support(thetas)
    arr = np.asarray(getattr(obj, "matrix", obj))
    if arr.ndim == 1:
        # max of Re(e^{-i theta} p) one angle at a time: O(points) memory
        pts = _point_cloud(arr)
        return np.array([np.max(d.real * pts.real - d.imag * pts.imag) for d in np.exp(-1j * thetas)])
    if arr.ndim == 2:
        return support_function(arr, thetas)
    raise UsageError(f"cannot compute a support function for {type(obj).__name__}")


def shape_containment(inner, outer, n_angles: int = 720) -> float:
    """Worst-case support margin of outer over inner on an angle grid.

    Nonnegative means the inner convex set fits inside the outer one (up
    to grid resolution); the value is the smallest slack found.
    """
    thetas = _angle_grid(n_angles)
    return float(np.min(support_of(outer, thetas) - support_of(inner, thetas)))


def regular_polygon(n: int, radius: float = 1.0, center: complex = 0j, phase: float = 0.0) -> np.ndarray:
    """Vertices of a regular n-gon, counterclockwise from the phase angle."""
    n = _as_int(n, "polygon order", 3)
    radius, center, phase = _as_number(radius, "radius"), _as_complex(center, "center"), _as_number(phase, "phase")
    for name, value in (("radius", radius), ("center", center), ("phase", phase)):
        if not np.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    k = np.arange(n)
    return center + radius * np.exp(1j * (phase + 2.0 * np.pi * k / n))


def _image_samples(f, radii, n_angles: int) -> np.ndarray:
    """Values f(r e^{i theta}) on each circle of the given radii, plus f(0)."""
    z = np.asarray(radii, dtype=float)[:, None] * np.exp(1j * _angle_grid(n_angles))[None, :]
    return np.append(np.asarray(f(z), dtype=complex), f(np.zeros(1, dtype=complex)))


def sample_image_hull(f, radii=None, n_angles: int = 512) -> HullPolygon:
    """Convex hull of sampled values f(r e^{i theta}).

    ``f`` must evaluate elementwise on complex arrays (truncated series
    and bi-polynomial symbols both do).  Default radii stay just inside
    the disk; pass radii=[1.0] to sample the boundary circle itself.
    """
    if radii is None:
        radii = np.linspace(0.0, 1.0 - 1e-3, 25)
    return HullPolygon.from_points(_image_samples(f, radii, n_angles))
