"""Numerical ranges of matrix truncations.

The numerical range of a matrix A is the set of Rayleigh quotients
v* A v over unit vectors.  It is convex, and its support function in the
direction e^{i theta} is the top eigenvalue of the Hermitian part of
e^{-i theta} A; the top eigenvector hands back a boundary point.  One
sweep kernel forms that Hermitian part and solves it at every angle;
support_function and boundary_points, hence every range here, call it.

The kernel picks its solver once per sweep from the exact zero pattern of
A, so a matrix read back from CSV is solved exactly as the one built in
process.  With g the gcd of the offsets |m - n| of the nonzero entries,
g > 1 makes A a direct sum over the residue classes mod g: the support is
the largest block support, and the boundary point that of the winning
block.  A block whose half-bandwidth kd is small against its size (a
Toeplitz truncation, a weighted composition over a rotation; kd = 0 for a
diagonal or zero matrix) is solved by the banded LAPACK routine zhbevx,
any other by the dense zheevr, both for the top index only.  Either gives
the same eigenvalue with and without the eigenvector, so supports agree
bit for bit between the two sweeps.

Reference shapes (discs, ellipses, polygons, sampled image hulls) share a
common support-function interface so containment can be decided by
comparing supports on an angle grid, which is exact for convex sets up to
grid resolution and immune to the sagging of inscribed polygons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bergrange.core import NumericError, UsageError

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


def _as_matrix(A) -> np.ndarray:
    matrix = getattr(A, "matrix", A)
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise UsageError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix has non-finite entries")
    return M


def _eigpair(H: np.ndarray, index: int, vectors: bool = True):
    """Eigenvalue ``index`` (ascending) of a Hermitian H, with ``vectors`` also its checked eigenvector.

    zheevr bisects for the one eigenvalue with or without the vector, so
    sweeps with and without vectors return identical supports.
    """
    from scipy.linalg.lapack import zheevr, zheevr_lwork  # here so `build` never pays for loading scipy.linalg
    lwork = int(zheevr_lwork(H.shape[0], lower=1)[0].real)
    w, z, _, _, info = zheevr(H, compute_v=int(vectors), range="I", lower=1, il=index + 1, iu=index + 1, lwork=lwork)
    if info != 0:
        raise NumericError(f"Hermitian eigensolver failed (LAPACK info {info})")
    return _checked_pair(H, float(w[0]), z[:, 0]) if vectors else (float(w[0]), None)


def _checked_pair(H: np.ndarray, lam: float, v: np.ndarray):
    """(lam, v), once the residual of H v = lam v is small enough to trust."""
    scale = max(1.0, float(np.max(np.abs(H))))
    residual = float(np.linalg.norm(H @ v - lam * v))
    if residual > 1e-10 * scale * np.sqrt(H.shape[0]):
        raise NumericError(f"eigenpair residual too large: {residual:.3e}")
    return lam, v


def _band_top(ab: np.ndarray, vectors: bool):
    """Top eigenpair of the Hermitian band matrix in LAPACK lower band storage ``ab``, vector None without ``vectors``.

    zhbevx reduces the band to tridiagonal form the same way with or without
    the vector and bisects for the one eigenvalue, so both modes agree.
    """
    from scipy.linalg.lapack import zhbevx
    n = ab.shape[1]
    w, z, m, _, info = zhbevx(ab, 0.0, 0.0, n, n, compute_v=int(vectors), range=2, lower=1)
    if info != 0 or m != 1:
        raise NumericError(f"Hermitian band eigensolver failed (LAPACK info {info}, {m} eigenvalues)")
    return float(w[0]), (z[:, 0] if vectors else None)


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
# With the eigenvector it wins only up to kd = 1, where the band reduction
# chases no bulge and its transformation costs O(n^2) rather than O(n^3).
_BAND_RATIO = 16
_BAND_VECTOR_KD = 1


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


class _Block:
    """One residue-class block of a sweep: its parts of A, A_re, A_im and its solver."""

    def __init__(self, M, A_re, A_im, idx, kd):
        whole = idx.size == M.shape[0]
        self.M, self.re, self.im = (X if whole else X[np.ix_(idx, idx)] for X in (M, A_re, A_im))
        self.n, self.kd = idx.size, kd
        self.band = None
        if _BAND_RATIO * kd <= self.n:
            # LAPACK lower band storage: band[d, j] = X[j + d, j]
            self.band = np.zeros((2, kd + 1, self.n), dtype=complex)
            for d in range(kd + 1):
                self.band[:, d, : self.n - d] = [np.diagonal(self.re, -d), np.diagonal(self.im, -d)]

    def hermitian(self, c, s):
        return c * self.re + s * self.im

    def top(self, c, s, vectors: bool):
        """Top eigenvalue of this block of H(theta); the eigenvector too if ``vectors`` and the same call gives it."""
        if self.band is None:
            return _eigpair(self.hermitian(c, s), self.n - 1, vectors)
        vectors = vectors and self.kd <= _BAND_VECTOR_KD
        lam, v = _band_top(c * self.band[0] + s * self.band[1], vectors)
        return _checked_pair(self.hermitian(c, s), lam, v) if vectors else (lam, None)


def _sweep(A, thetas: np.ndarray, vectors: bool):
    """Supports at ``thetas`` and, with ``vectors``, the boundary points v* A v (else None).

    H(theta) = cos(theta) A_re + sin(theta) A_im is the Hermitian part of
    e^{-i theta} A.  It is nonzero only where A or A* is, so the residue
    classes and half-bandwidth of A fix the solver of every angle: the
    support is the largest block support and the point that of the winning
    block, whose eigenvector is taken from the dense solver where banded
    vectors cost more.  The support comes from the same call in both modes.
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
        (h[k], v), win = tops[j], blocks[j]
        if vectors:
            if v is None:
                v = _eigpair(win.hermitian(c, s), win.n - 1)[1]
            points[k] = v.conj() @ (win.M @ v)
    if not (np.all(np.isfinite(h)) and (points is None or np.all(np.isfinite(points)))):
        raise NumericError("support sweep produced non-finite values")
    return h, points


def support_function(A, thetas) -> np.ndarray:
    """Support of the numerical range in the directions e^{i theta}.

    h(theta) = lambda_max( (e^{-i theta} A + e^{i theta} A*) / 2 ).
    """
    return _sweep(A, np.atleast_1d(np.asarray(thetas, dtype=float)), vectors=False)[0]


def boundary_points(A, n_angles: int = 360):
    """Boundary sweep of the numerical range.

    Returns a list of (theta, point, support) triples where point is the
    Rayleigh quotient of the top eigenvector of the rotated Hermitian
    part; these points lie on the boundary of the range and their convex
    hull approximates it from inside.
    """
    if not isinstance(n_angles, (int, np.integer)) or n_angles < 3:
        raise UsageError(f"n_angles must be an integer >= 3, got {n_angles!r}")
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    h, points = _sweep(A, thetas, vectors=True)
    return [(float(th), complex(p), float(s)) for th, p, s in zip(thetas, points, h)]


def convex_hull(points) -> np.ndarray:
    """Convex hull by the monotone chain, vertices counterclockwise.

    Degenerate inputs are handled: a single repeated point gives a
    one-vertex hull and collinear points a two-vertex hull.  Nearly
    coincident points are merged at 1e-12 relative to the spread.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise UsageError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise NumericError("points contain non-finite values")
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
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex).ravel().copy()
        if v.size == 0:
            raise UsageError("polygon needs at least one vertex")
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
        if n < 1:
            raise UsageError("n must be >= 1")
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


def hull_hausdorff(a: HullPolygon, b: HullPolygon, n_samples: int = 1024) -> float:
    """Hausdorff distance between two convex polygons (as filled sets).

    The distance-to-a-convex-set function is convex, so each directed
    distance is attained at a vertex; boundary samples are thrown in as a
    belt-and-braces measure for nearly degenerate hulls.
    """
    if not isinstance(a, HullPolygon):
        a = HullPolygon.from_points(a)
    if not isinstance(b, HullPolygon):
        b = HullPolygon.from_points(b)
    pa = np.concatenate([a.vertices, a.boundary_samples(n_samples)])
    pb = np.concatenate([b.vertices, b.boundary_samples(n_samples)])
    d_ab = max(_distance_to_hull(complex(p), b) for p in pa)
    d_ba = max(_distance_to_hull(complex(p), a) for p in pb)
    return max(d_ab, d_ba)


@dataclass(frozen=True)
class DiscSpec:
    """Closed disc, for containment comparisons."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise UsageError("radius must be >= 0")

    def support(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return np.real(np.exp(-1j * thetas) * self.center) + self.radius


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
        object.__setattr__(self, "focus1", complex(self.focus1))
        object.__setattr__(self, "focus2", complex(self.focus2))
        object.__setattr__(self, "minor_axis", float(self.minor_axis))
        if self.minor_axis < 0:
            raise UsageError("minor_axis must be >= 0")

    @property
    def center(self) -> complex:
        return (self.focus1 + self.focus2) / 2.0

    @property
    def major_axis(self) -> float:
        return float(np.hypot(self.minor_axis, abs(self.focus1 - self.focus2)))

    def support(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        beta = np.angle(self.focus2 - self.focus1) if self.focus2 != self.focus1 else 0.0
        a_s = self.major_axis / 2.0
        b_s = self.minor_axis / 2.0
        rel = thetas - beta
        bulge = np.sqrt(a_s**2 * np.cos(rel) ** 2 + b_s**2 * np.sin(rel) ** 2)
        return np.real(np.exp(-1j * thetas) * self.center) + bulge

    def boundary(self, n: int = 256) -> np.ndarray:
        phi = 2.0 * np.pi * np.arange(n) / n
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
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if isinstance(obj, (HullPolygon, DiscSpec, EllipseSpec)):
        return obj.support(thetas)
    arr = np.asarray(getattr(obj, "matrix", obj))
    if arr.ndim == 1:
        # max of Re(e^{-i theta} p) one angle at a time: O(points) memory
        pts = arr.astype(complex)
        return np.array([np.max(d.real * pts.real - d.imag * pts.imag) for d in np.exp(-1j * thetas)])
    if arr.ndim == 2:
        return support_function(arr, thetas)
    raise UsageError(f"cannot compute a support function for {type(obj).__name__}")


def shape_containment(inner, outer, n_angles: int = 720) -> float:
    """Worst-case support margin of outer over inner on an angle grid.

    Nonnegative means the inner convex set fits inside the outer one (up
    to grid resolution); the value is the smallest slack found.
    """
    if n_angles < 3:
        raise UsageError("n_angles must be >= 3")
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return float(np.min(support_of(outer, thetas) - support_of(inner, thetas)))


def regular_polygon(n: int, radius: float = 1.0, center: complex = 0j, phase: float = 0.0) -> np.ndarray:
    """Vertices of a regular n-gon, counterclockwise from the phase angle."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise UsageError(f"polygon order must be an integer >= 3, got {n!r}")
    k = np.arange(n)
    return center + radius * np.exp(1j * (phase + 2.0 * np.pi * k / n))


def _image_samples(f, radii, n_angles: int) -> np.ndarray:
    """Values f(r e^{i theta}) on each circle of the given radii, plus f(0)."""
    if n_angles < 3:
        raise UsageError("n_angles must be >= 3")
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    z = np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta)[None, :]
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
