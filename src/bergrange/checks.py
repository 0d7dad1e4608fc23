"""Named quantitative checks for Bergman-space truncations.

Each check measures a truncation against values derived by an independent
route: norm recurrences, Beta-integral moments, closed-form supports of
discs and ellipses, or exact structural identities (compression nesting,
diagonal congruence, unitary equivariance).  A check never re-reads its
expected value from the code under test.

Containment statements are decided through support functions on a
uniform angle grid: for convex sets the sup-norm gap of the support
functions equals their Hausdorff distance, and support dominance along
a grid is exact for nested compressions, so the tests avoid the sag of
inscribed polygons entirely.  Every comparison of a range with a
closed-form set (the origin, a disc, a circle, an ellipse, a segment or
a sampled symbol image) goes through one of two helpers, each of which
sweeps the range once on the check's K-angle grid: ``_margin`` returns
the smallest support margin, which decides containment, from the angle
pairs that can hold it, and ``_gap`` the largest support gap, from every
pair.  Both are grid values, not certified distances.  Symbol images are
sampled on the unit circle alone: Re(e^{-i theta} f) is harmonic for
every symbol used here, so by the maximum principle the circle holds
each support.

A check is declared once, by the ``_check`` decorator right above its
body: its id, its claim, and each parameter as ``name=(default, reader)``.
The registry holds the checks in the order they are declared here.
``run_check`` merges the overrides with the defaults and reads every
parameter, and "seed", with ``core._read_fields`` before the body runs,
so the body receives typed keyword arguments and a report records only
values its check ran at.  The readers are the validators of
``bergrange.core``, as for job configs: counts are integers (Python or
NumPy, never bool), real parameters are numbers, coefficient lists such
as ``psi`` are lists of [re, im] pairs, and a single complex value such
as ``lam`` is a pair or a number.  Any other value raises UsageError
naming the parameter, and an unknown name one that lists the allowed
ones; the command line reports either with exit code 2.  Relations
between parameters, such as ``m2 > m1``, are checked in the bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from bergrange.core import (
    NumericError,
    UsageError,
    _as_complex,
    _as_int,
    _as_number,
    _as_pairs,
    _int,
    _list_of,
    _read_fields,
    alpha_weight,
    disk_quadrature,
    kernel_coeffs,
    monomial_norm_sq,
    norm_ratio,
    series_eval,
)
from bergrange.numrange import (
    DiscSpec,
    EllipseSpec,
    _angle_grid,
    _grid_margin,
    _image_samples,
    boundary_points,
    ellipse_from_2x2,
    numerical_range_hull,
    support_function,
    support_of,
)
from bergrange.operators import (
    BiPolySymbol,
    build_multiplication,
    build_toeplitz,
    build_weighted_composition,
    compress,
    kernel_form_closed,
    kernel_form_matrix,
    off_block_max,
    operator_sum,
)

__all__ = ["CheckReport", "accepted_overrides", "list_checks", "run_check", "run_all"]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check at concrete parameters."""

    id: str
    params: dict
    passed: bool
    metrics: dict
    tolerance: float
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "pass": self.passed,
            "metrics": self.metrics,
            "tolerance": self.tolerance,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class _CheckDef:
    claim: str
    defaults: dict
    fields: dict
    fn: Callable


# filled at import by ``_check``, in declaration order
_REGISTRY: dict = {}


def _check(check_id: str, claim: str, **params):
    """Register the decorated body as check ``check_id``.

    Each keyword is a parameter of the body, given as (default, reader);
    ``run_check`` passes it as ``reader(value, name)``.  "seed" is read
    first, as a field of every check, and recorded but not passed on.
    """

    def register(fn):
        defaults = {name: default for name, (default, _) in params.items()}
        _REGISTRY[check_id] = _CheckDef(claim, defaults, {"seed": (None, _int(0)), **params}, fn)
        return fn

    return register


def _as_mc_pair(value, where: str) -> tuple:
    """An [m, c] pair of l11_bounded: an integer m >= 1 and a number c > 1."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise UsageError(f"{where} must be an [m, c] pair, got {value!r}")
    m, c = _as_int(value[0], f"{where}[0]", 1), _as_number(value[1], f"{where}[1]")
    if c <= 1.0:
        raise UsageError(f"{where}[1] must be > 1, got {c}")
    return m, c


def _padded_coeff(coeffs: np.ndarray, k: int) -> complex:
    if k < 0 or k >= coeffs.size:
        return 0j
    return complex(coeffs[k])


def _margin(A, shape, K: int) -> float:
    """min over the K-angle grid of h_A - h_shape, nonnegative where the convex ``shape`` (a disc, an ellipse or a point cloud) fits inside the range.

    A grid value, not a certified distance: it only bounds the true margin
    from above.  ``numrange._grid_margin`` solves only the angle pairs that
    can hold the minimum, and returns the full sweep's value bit for bit.
    """
    return _grid_margin(A, support_of(shape, _angle_grid(K)), K)


def _gap(A, shape, K: int) -> float:
    """max over the K-angle grid of |h_A - h_shape|, the Hausdorff distance of the range and a convex ``shape`` on that grid, from a full sweep.

    A grid value, not a certified distance.  The gaps of these checks lie
    near rounding level or nearly flat over the grid, where the bounds that
    ``numrange._grid_margin`` prunes by rule out almost no angle.
    """
    theta = _angle_grid(K)
    return float(np.max(np.abs(support_function(A, theta) - support_of(shape, theta))))


def _root_of_unity(n: int) -> np.complex128:
    """e^{2 pi i / n}, exact at n = 1, 2 and 4.

    There it is 1, -1 and i, where np.exp leaves a stray part near 1e-16:
    the order-2 rotation built from it would not be exactly real, and its
    sweep would lose the mirror that a real matrix takes.
    """
    return np.complex128({1: 1.0, 2: -1.0, 4: 1j}.get(n, np.exp(2j * np.pi / n)))


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, metrics, tolerance, notes)


@_check(
    "t1_spectrum",
    "Hermitian truncations of a real harmonic symbol keep their spectrum inside the sampled symbol interval and expand to fill it",
    alpha=(0.0, _as_number), N=(128, _int(2)), cover=(0.97, _as_number),
)
def _run_t1_spectrum(alpha, N, cover):
    sym = BiPolySymbol(((1, 0, 0.5), (0, 1, 0.5)))
    T = build_toeplitz(sym, alpha, N)
    herm_dev = float(np.max(np.abs(T.matrix - T.matrix.conj().T)))
    vals = np.linalg.eigvalsh(T.matrix)
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    # the symbol Re z is harmonic, so its extremes over the disk sit on the circle
    samples = _image_samples(sym, 512).real
    s_inf, s_sup = float(np.min(samples)), float(np.max(samples))
    tol = 1e-12
    passed = (
        herm_dev <= 1e-14
        and lam_max <= s_sup + tol
        and lam_min >= s_inf - tol
        and lam_max >= cover * s_sup
        and lam_min <= cover * s_inf
    )
    metrics = {
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "symbol_inf": s_inf,
        "symbol_sup": s_sup,
        "hermitian_dev": herm_dev,
    }
    notes = (
        "truncation spectrum stays inside the sampled symbol interval and "
        f"covers the fraction {cover:g} of it at this size"
    )
    return passed, metrics, tol, notes


@_check(
    "t3_harmonic_range",
    "the swept range of a harmonic-symbol truncation approximates the open image hull from inside",
    alpha=(0.0, _as_number), N=(200, _int(2)), K=(360, _int(8)), a=(0.5, _as_number),
    delta=(0.02, _as_number),
)
def _run_t3_harmonic(alpha, N, K, a, delta):
    sym = BiPolySymbol(((1, 0, 1.0), (0, 1, a)))
    T = build_toeplitz(sym, alpha, N)
    theta = _angle_grid(K)
    h_sweep = support_function(T, theta)
    h_closure = support_of(_image_samples(sym, 2048), theta)
    exclusion = float(np.min(h_closure - h_sweep))
    hausdorff = float(np.max(np.abs(h_closure - h_sweep)))
    # interior probes: the image of a slightly shrunk circle must already be
    # swallowed by the swept range (support inequalities on the grid)
    probes = sym((1.0 - delta) * np.exp(1j * _angle_grid(64)))
    probe_margin = float(np.min(h_sweep - support_of(probes, theta)))
    tol = 0.02
    passed = hausdorff <= tol and exclusion > 0.0 and probe_margin > 0.0
    metrics = {
        "hausdorff": hausdorff,
        "closure_exclusion_margin": exclusion,
        "probe_margin": probe_margin,
    }
    notes = (
        "swept range sits strictly inside the closed image hull while probes "
        f"from the circle shrunk by {delta:g} are already covered"
    )
    return passed, metrics, tol, notes


@_check(
    "c1_multiplication",
    "the range of a multiplication truncation fills the convex hull of the symbol image",
    alpha=(0.0, _as_number), N=(200, _int(2)), K=(360, _int(8)),
    psi=([[0.5, 0.0], [0.5, 0.0]], _as_pairs),
)
def _run_c1_multiplication(alpha, N, K, psi):
    M = build_multiplication(psi, alpha, N)
    hausdorff = _gap(M, _image_samples(partial(series_eval, psi), 512), K)
    tol = 0.05
    return (
        hausdorff <= tol,
        {"hausdorff": hausdorff},
        tol,
        "multiplication truncation range against the convex hull of the symbol image",
    )


@_check(
    "zsq_diagonal",
    "the matrix of the symbol |z|^2 is diagonal with entries (n+1)/(n+alpha+2)",
    alphas=([0.0, 1.0], _list_of(_as_number)), N=(64, _int(2)),
)
def _run_zsq_diagonal(alphas, N):
    tol = 1e-10
    metrics = {}
    passed = True
    for alpha in alphas:
        T = build_toeplitz([(1, 1, 1.0)], alpha, N).matrix
        off = float(np.max(np.abs(T - np.diag(np.diag(T)))))
        n = np.arange(N)
        formula = (n + 1.0) / (n + alpha + 2.0)
        diag = np.real(np.diag(T))
        formula_dev = float(np.max(np.abs(diag - formula)))
        with np.errstate(over="ignore"):
            ratios = np.exp(alpha_weight(alpha, N)[:N])
        if not np.all(np.isfinite(ratios)):
            # r_k times a quadrature that underflows to 0 would be inf * 0
            raise NumericError(
                f"the quadrature oracle needs r_k, which overflows float64 from "
                f"k = {int(np.argmin(np.isfinite(ratios)))} at alpha = {alpha:g}"
            )
        quad = np.array(
            [
                ratios[k]
                * disk_quadrature(lambda z, k=k: np.abs(z) ** (2 * k + 2), alpha, 80, 8).real
                for k in range(N)
            ]
        )
        quad_dev = float(np.max(np.abs(diag - quad)))
        key = f"alpha{alpha:g}"
        metrics[f"off_diag_max_{key}"] = off
        metrics[f"formula_dev_{key}"] = formula_dev
        metrics[f"quadrature_dev_{key}"] = quad_dev
        if alpha == 0.0:
            metrics["lambda_0"] = float(diag[0])
        passed = passed and off <= 1e-12 and formula_dev <= 1e-12 and quad_dev <= tol
    notes = (
        "with the normalized weighted measure the diagonal is (n+1)/(n+alpha+2), "
        "as the quadrature oracle confirms; under the unnormalized area measure "
        "the same entries pick up a stray factor of pi"
    )
    return passed, metrics, tol, notes


@_check(
    "l11_bounded",
    "the ratio sequence n! G(nm+c) / ((nm)! G(n+c)) is monotone and bounded by m^(c-1)",
    pairs=([[1, 2.5], [2, 1.5], [2, 3.0], [3, 2.0]], _list_of(_as_mc_pair, "[m, c] pairs")),
    n_max=(64, _int(2)),
)
def _run_l11_bounded(pairs, n_max):
    tol = 1e-10
    metrics = {}
    passed = True
    for m, c in pairs:
        x = 1.0
        xs = [x]
        for n in range(n_max):
            ratio = (n + 1.0) / (n + c)
            for j in range(m):
                ratio *= (n * m + c + j) / (n * m + 1.0 + j)
            x *= ratio
            xs.append(x)
        xs = np.array(xs)
        bound = float(m) ** (c - 1.0)
        sup = float(np.max(xs))
        min_diff = float(np.min(np.diff(xs)))
        key = f"m{m}_c{c:g}"
        metrics[f"sup_{key}"] = sup
        metrics[f"bound_{key}"] = bound
        metrics[f"min_step_{key}"] = min_diff
        passed = passed and sup <= bound * (1.0 + tol) and min_diff >= -1e-12
    notes = "x_n = n! G(nm+c) / ((nm)! G(n+c)) climbs monotonically toward m^(c-1)"
    return passed, metrics, tol, notes


@_check(
    "block_decomposition",
    "multiplication by g(z^n) splits into n diagonal blocks over index residues mod n",
    alpha=(0.5, _as_number), N=(96, _int(2)), orders=([2, 3, 4, 6], _list_of(_int(2))),
    g=([[1.0, 0.0], [0.5, 0.0]], _as_pairs),
)
def _run_block_decomposition(alpha, N, orders, g):
    tol = 1e-12
    metrics = {}
    for order in orders:
        psi = np.zeros(order * (g.size - 1) + 1, dtype=complex)
        psi[::order] = g
        M = build_multiplication(psi, alpha, N)
        lam = _root_of_unity(order)
        W = build_weighted_composition(psi, [0.0, lam], alpha, N)
        metrics[f"off_block_mul_n{order}"] = off_block_max(M, order)
        metrics[f"off_block_comp_n{order}"] = off_block_max(W, order)
    worst = max(metrics.values())
    # negative control: the mod-2 symbol must fail the mod-3 split
    psi2 = np.zeros(2 * (g.size - 1) + 1, dtype=complex)
    psi2[::2] = g
    control = off_block_max(build_multiplication(psi2, alpha, N), 3)
    metrics["negative_control_off_block"] = control
    passed = worst <= tol and control > 0.1
    notes = "entries vanish off the residue classes index = index (mod n), splitting the matrix into n blocks"
    return passed, metrics, tol, notes


@_check(
    "th1_rotation_hull",
    "for a weight of the form g(z^n) over the order-n rotation, the range is the hull of the union of the rotated symbol images",
    alpha=(0.0, _as_number), n=(3, _int(2)), N=(192, _int(2)), K=(360, _int(8)),
    psi=([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], _as_pairs),
)
def _run_th1_rotation(alpha, n, N, K, psi):
    off = [int(k) for k in np.flatnonzero(psi) if k % n]
    if off:
        raise UsageError(
            f"psi must have the form g(z^n), but its coefficient of degree {off[0]} is nonzero "
            f"and n={n} does not divide {off[0]}"
        )
    lam = _root_of_unity(n)
    A = build_weighted_composition(psi, [0.0, lam], alpha, N)
    image = _image_samples(partial(series_eval, psi), 512)
    hausdorff = _gap(A, np.concatenate([lam**j * image for j in range(n)]), K)
    tol = 0.05
    notes = (
        "the union identity needs a weight of the form g(z^n), which keeps "
        "the residue-class subspaces invariant; the default weight has that form"
    )
    return hausdorff <= tol, {"hausdorff": hausdorff}, tol, notes


@_check(
    "c2_polygon",
    "composition with a root-of-unity rotation sweeps a regular eigenvalue polygon, degenerating to a segment at order two",
    alpha=(0.0, _as_number), orders=([2, 3, 4, 6], _list_of(_int(2))), N=(16, _int(2)),
    K=(360, _int(8)),
)
def _run_c2_polygon(alpha, orders, N, K):
    tol = 1e-12
    metrics = {}
    passed = True
    for order in orders:
        if N < order:
            raise UsageError(f"N must be >= the rotation order, got N={N} < {order}")
        lam = _root_of_unity(order)
        A = build_weighted_composition([1.0], [0.0, lam], alpha, N)
        hull = numerical_range_hull(A, K)
        expected = np.array([lam**k for k in range(order)]) if order >= 3 else np.array([1.0, -1.0])
        dev = max(
            float(np.min(np.abs(hull.vertices - e))) for e in expected
        )
        count_ok = hull.vertices.size == expected.size
        metrics[f"vertex_dev_n{order}"] = dev
        passed = passed and count_ok and dev <= tol
        if order == 2:
            width = float(np.max(np.abs(hull.vertices.imag)))
            metrics["segment_width_n2"] = width
            passed = passed and width <= tol
    notes = "eigenvalue polygon of a root-of-unity rotation; the order-2 case degenerates to the segment [-1, 1]"
    return passed, metrics, tol, notes


@_check(
    "th2_symmetric",
    "for a weight built from powers of z^n the truncation is exactly equivariant under an n-fold rotation and its range matches the symbol image hull",
    alpha=(0.0, _as_number), orders=([2, 3], _list_of(_int(2))), N=(192, _int(2)), K=(360, _int(8)),
    c=(0.25, _as_complex),
)
def _run_th2_symmetric(alpha, orders, N, K, c):
    tol = 1e-8
    metrics = {}
    passed = True
    for order in orders:
        if K % order != 0:
            raise UsageError(f"K must be divisible by every order, got K={K}, order={order}")
        # psi = f(z^n) with f(u) = u + c u^(n+1); every exponent of f is
        # 1 mod n, which is what makes the diagonal phase trick exact
        psi = np.zeros(order * (order + 1) + 1, dtype=complex)
        psi[order] = 1.0
        psi[order * (order + 1)] = c
        lam = _root_of_unity(order)
        A = build_weighted_composition(psi, [0.0, lam], alpha, N)
        mu = _root_of_unity(order**2)
        u = mu ** np.arange(N)
        conjugated = (u[:, None] * A.matrix) * np.conj(u)[None, :]
        equiv_dev = float(np.max(np.abs(conjugated - lam * A.matrix)))
        theta = _angle_grid(K)
        h = support_function(A, theta)
        # the grid sweep copies the supports of one 2 pi / n window to the
        # others, so the symmetry is measured on independent solves: two
        # off-grid angles and their rotations by 2 pi m / n, at most 12 in
        # all, an angle array on which the sweep solves every angle alone
        turns, count = min(order, 12), max(1, min(2, 12 // order))
        start = 0.3 + 2.0 * np.pi * np.arange(count) / (order * count)
        rotated = support_function(A, (start[:, None] + 2.0 * np.pi * np.arange(turns) / order).ravel()).reshape(count, turns)
        sym_dev = float(np.max(np.abs(rotated - rotated[:, :1])))
        image = _image_samples(partial(series_eval, psi), 1024)
        image_haus = float(np.max(np.abs(h - support_of(image, theta))))
        metrics[f"equivariance_dev_n{order}"] = equiv_dev
        metrics[f"symmetry_dev_n{order}"] = sym_dev
        metrics[f"image_hausdorff_n{order}"] = image_haus
        passed = passed and equiv_dev <= 1e-12 and sym_dev <= tol and image_haus <= 0.05
    notes = (
        "a diagonal phase matrix conjugates the truncation onto its rotation "
        "exactly, so the n-fold symmetry of the range holds at machine precision"
    )
    return passed, metrics, tol, notes


@_check(
    "theo1_kernel_sum",
    "kernel quadratic forms of a two-term sum vanish at a common zero of the weights and decay toward the boundary",
    alpha=(0.0, _as_number), N=(128, _int(2)), w0=([0.3, 0.0], _as_complex),
    ts=([0.9, 0.99, 0.999], _list_of(_as_number)),
)
def _run_theo1_kernel_sum(alpha, N, w0, ts):
    tol = 1e-8
    # part one: both weights vanish at w0, so the kernel form of the sum
    # vanishes there as well
    psi1 = np.array([-w0, 1.0], dtype=complex)
    psi2 = np.array([-0.5 * w0, 0.5 - w0, 1.0], dtype=complex)  # (z - w0)(z + 1/2)
    ident = [0.0, 1.0]
    A = operator_sum(
        [
            build_weighted_composition(psi1, ident, alpha, N),
            build_weighted_composition(psi2, ident, alpha, N),
        ]
    )
    interior = abs(kernel_form_matrix(A, w0))
    # part two: no interior zero, but the form of the sum decays toward the
    # boundary; closed kernel forms carry the decay, with a matrix
    # cross-check at the innermost sample where the truncated kernel has
    # converged
    psi_a, phi_a = [1.0], [0.0, 0.5]
    psi_b, phi_b = [1.0, 0.25], [0.0, -0.5]
    closed = [
        kernel_form_closed(psi_a, phi_a, t, alpha) + kernel_form_closed(psi_b, phi_b, t, alpha)
        for t in ts
    ]
    decay = [abs(v) for v in closed]
    B = operator_sum(
        [
            build_weighted_composition(psi_a, phi_a, alpha, N),
            build_weighted_composition(psi_b, phi_b, alpha, N),
        ]
    )
    cross_dev = abs(kernel_form_matrix(B, ts[0]) - closed[0])
    metrics = {"interior_form_abs": float(interior), "cross_check_dev": float(cross_dev)}
    for t, v in zip(ts, decay):
        metrics[f"decay_t{t:g}"] = float(v)
    strictly_decreasing = all(b < a for a, b in zip(decay, decay[1:]))
    passed = (
        interior <= tol
        and cross_dev <= 1e-6
        and strictly_decreasing
        and decay[-1] <= 1e-4
    )
    notes = (
        "the vanishing hypothesis concerns the weight functions, whose common "
        "zero kills the form; boundary decay uses the closed kernel form, "
        "cross-checked against the matrix route at the innermost sample"
    )
    return passed, metrics, tol, notes


@_check(
    "pro1_rank_one",
    "constant-target compositions have rank one with segment, disc, or ellipse ranges as predicted",
    alpha=(0.0, _as_number), N=(128, _int(2)), K=(360, _int(8)),
)
def _run_pro1_rank_one(alpha, N, K):
    tol = 1e-8
    # case one: constant weight, target 0 -> segment from 0 to the weight
    c0 = 0.7 + 0.2j
    A1 = build_weighted_composition([c0], [0.0], alpha, N)
    dev_segment = _gap(A1, np.array([0j, c0]), K)
    # case two: weight vanishing at the target point -> centred disc
    w2 = 0.4
    psi2 = np.array([-w2, 1.0], dtype=complex)
    A2 = build_weighted_composition(psi2, [w2], alpha, N)
    norm_psi2 = np.sqrt(monomial_norm_sq(1, alpha) + abs(w2) ** 2)
    radius = float(norm_psi2 / (2.0 * (1.0 - w2**2) ** (alpha / 2.0 + 1.0)))
    dev_disc = _gap(A2, DiscSpec(0j, radius), K)
    # case three: generic constant target -> ellipse with foci 0 and psi(w)
    w3 = 0.3
    psi3 = np.array([1.0, 1.0], dtype=complex)
    A3 = build_weighted_composition(psi3, [w3], alpha, N)
    fw = complex(series_eval(psi3, w3))
    norm_sq = 1.0 + monomial_norm_sq(1, alpha)
    kernel_sq = (1.0 - w3**2) ** (-(alpha + 2.0))
    minor = float(np.sqrt(norm_sq * kernel_sq - abs(fw) ** 2))
    dev_ellipse = _gap(A3, EllipseSpec(0j, fw, minor), K)
    metrics = {
        "segment_dev": dev_segment,
        "disc_radius": radius,
        "disc_dev": dev_disc,
        "ellipse_minor": minor,
        "ellipse_dev": dev_ellipse,
    }
    passed = dev_segment <= 1e-9 and dev_disc <= tol and dev_ellipse <= tol
    notes = "constant-target operators have rank one; segment, disc, and ellipse supports match the predictions"
    return passed, metrics, tol, notes


@_check(
    "theo2_zero_interior",
    "the origin is interior to the range when the self-map fixes the origin without being a dilation",
    alpha=(0.0, _as_number), schedule=([16, 32, 64, 128], _list_of(_int(2))), K=(360, _int(8)),
    margin=(1e-3, _as_number),
)
def _run_theo2_zero_interior(alpha, schedule, K, margin):
    phi = [0.0, 0.45, 0.45]
    margins = [_margin(build_weighted_composition([1.0], phi, alpha, N), DiscSpec(0j, 0.0), K) for N in schedule]
    metrics = {f"margin_N{N}": m for N, m in zip(schedule, margins)}
    metrics["max_margin"] = max(margins)
    monotone = all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))
    passed = max(margins) >= margin and monotone
    notes = (
        f"each margin is the origin's smallest support margin on the {K}-angle "
        "grid: an upper bound on its distance to the range boundary, not a "
        "certified one; margins grow with N because truncation ranges nest"
    )
    return passed, metrics, margin, notes


@_check(
    "theo3_zero_interior",
    "the origin is interior to the range of the weight 1+z composed with negation",
    alpha=(0.0, _as_number), N=(32, _int(2)), K=(360, _int(8)), margin=(1e-3, _as_number),
)
def _run_theo3_zero_interior(alpha, N, K, margin):
    A = build_weighted_composition([1.0, 1.0], [0.0, -1.0], alpha, N)
    swept = _margin(A, DiscSpec(0j, 0.0), K)
    return (
        swept >= margin,
        {"margin": swept},
        margin,
        f"the margin is the origin's smallest support margin on the {K}-angle grid "
        "for the weight (1+z) composed with the sign flip: an upper bound on its "
        "distance to the range boundary, not a certified one",
    )


def _scaled_hermitian(A: np.ndarray) -> np.ndarray:
    """S = D H D for H = Re A, the Hermitian part, and D = diag(2^(k/2)), the float powers of sqrt 2.

    Any positive diagonal D keeps the inertia of H, so these float powers
    serve as they are.
    """
    H = (A + A.conj().T) / 2.0
    scale = np.sqrt(2.0) ** np.arange(A.shape[0])
    return (scale[:, None] * H) * scale[None, :]


def _gershgorin_lower(S: np.ndarray) -> float:
    """A proven lower bound on the least eigenvalue of the Hermitian matrix that S holds up to its rounding: min_i (S_ii - sum_{j != i} |S_ij|), less a rounding bound.

    The slack, (n + 8) eps times each row's sum of moduli, is twice what
    rounding can take: three units in the last place on each entry of S,
    from forming the Hermitian part and scaling it, one on each modulus,
    and gamma_n on each row sum (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1).
    """
    moduli = np.abs(S)
    diagonal = np.diagonal(S).real
    off = moduli.sum(axis=1) - np.diagonal(moduli)
    slack = (S.shape[0] + 8) * np.finfo(float).eps * (np.abs(diagonal) + off)
    return float(np.min(diagonal - off - slack))


@_check(
    "remark_counterexample",
    "for the weight 1+z/4 over the half dilation the origin stays outside every truncation range, certified by scaled positive definiteness",
    alpha=(0.0, _as_number), schedule=([16, 32, 64, 128], _list_of(_int(2))), K=(360, _int(8)),
)
def _run_remark_counterexample(alpha, schedule, K):
    tol = 0.1
    psi, phi = [1.0, 0.25], [0.0, 0.5]
    metrics = {}
    passed = True
    for N in schedule:
        A = build_weighted_composition(psi, phi, alpha, N)
        # A e_n = 2^(-n) (e_n + (c_n/4) e_(n+1)); past the normal range these
        # entries round or vanish, and S no longer holds the bound's matrix
        small = np.abs(np.concatenate([np.diagonal(A.matrix), np.diagonal(A.matrix, -1)])) < np.finfo(float).tiny
        if small.any():
            raise UsageError(
                f"N={N} is too large for remark_counterexample: the diagonal entries 2^-n and the ones "
                "below them fall under the smallest normal float, so the Gershgorin bound would fail "
                "a claim that holds for every N"
            )
        S = _scaled_hermitian(A.matrix)
        lam_s = float(np.linalg.eigvalsh(S)[0])
        lower = _gershgorin_lower(S)
        metrics[f"scaled_min_eig_N{N}"] = lam_s
        metrics[f"distance_lower_bound_N{N}"] = lam_s * 2.0 ** (-(N - 1))
        metrics[f"gershgorin_lower_N{N}"] = lower
        passed = passed and lam_s > tol and lower > tol
        if N <= 32:
            hull = numerical_range_hull(A, K)
            metrics[f"polygon_distance_N{N}"] = max(0.0, -hull.signed_distance(0j))
    metrics["gershgorin_limit"] = 1.0 - np.sqrt(2.0) / 4.0
    notes = (
        "A e_n = 2^(-n) (e_n + (c_n/4) e_(n+1)) with c_n = ||z^(n+1)|| / ||z^n|| < 1, "
        "so S = D H D, for H the Hermitian part and D = diag(2^(n/2)), has unit "
        "diagonal and off-diagonal entries sqrt(2) c_n / 8 < sqrt(2)/8; by "
        "Gershgorin S >= (1 - sqrt(2)/4) I, the gershgorin_limit, for every N and "
        "every alpha > -1, and on the whole space, so Re<Tx, x> >= "
        "(1 - sqrt(2)/4) ||D^(-1) x||^2 > 0 for x != 0: the origin lies outside "
        "the range of every truncation and of the operator itself, and in the "
        "closure, as <T e_n, e_n> = 2^(-n); each gershgorin_lower_N is that bound "
        "from the computed entries of S less an outward rounding bound, a proof "
        "at that N, while scaled_min_eig_N is an eigensolver's value, which is "
        "not, and the raw Hermitian part has eigenvalues decaying like 2^(-N)"
    )
    return passed, metrics, tol, notes


@_check(
    "th_disc_TH1",
    "witness vectors realize a centred disc of radius w_m/(1+w_m) inside the range of the monomial weight over the squaring map",
    alpha=(0.0, _as_number), m=(1, _int(1)), N=(64, _int(2)), K=(360, _int(8)),
    n_lambda=(32, _int(4)),
)
def _run_th_disc_one(alpha, m, N, K, n_lambda):
    if N <= 3 * m:
        raise UsageError(f"N must exceed 3m to hold the witness action, got N={N}, m={m}")
    psi = np.zeros(m + 1, dtype=complex)
    psi[m] = 1.0
    A = build_weighted_composition(psi, [0.0, 0.0, 1.0], alpha, N)
    w_m = monomial_norm_sq(m, alpha)
    radius = w_m / (1.0 + w_m)
    scale = 1.0 / np.sqrt(1.0 + w_m)
    devs = []
    for j in range(n_lambda):
        lam = np.exp(2j * np.pi * j / n_lambda)
        v = np.zeros(N, dtype=complex)
        v[0] = lam * scale
        v[m] = np.sqrt(w_m) * scale
        form = complex(v.conj() @ (A.matrix @ v))
        devs.append(abs(form - radius * lam))
    containment = _margin(A, DiscSpec(0j, radius), K)
    tol = 1e-10
    passed = max(devs) <= tol and containment >= -1e-9
    metrics = {
        "radius": float(radius),
        "max_witness_dev": float(max(devs)),
        "containment_margin": containment,
    }
    notes = (
        "unit vectors proportional to (lambda + z^m) realize the boundary of "
        "the predicted centred disc inside the range itself; the truncation is "
        "a weighted shift (entries n -> 2n + m, zero diagonal), so its range is "
        "exactly a centred disc, whose radius one solve at theta = 0 gives"
    )
    return passed, metrics, tol, notes


@_check(
    "th_disc_TH2",
    "the {e_1, e_m} compression is nilpotent with disc radius half of sqrt(r_1/r_m) times the relevant weight coefficient",
    alpha=(0.0, _as_number), m=(2, _int(2)), lam=([1.0, 0.0], _as_complex), N=(64, _int(2)),
    K=(720, _int(8)),
)
def _run_th_disc_two(alpha, m, lam, N, K):
    if abs(abs(lam) - 1.0) > 1e-12:
        raise UsageError(f"lam must be unimodular, got |lam| = {abs(lam)}")
    if N <= m:
        raise UsageError(f"N must exceed m, got N={N}, m={m}")
    psi = np.array([0.0, 1.0], dtype=complex)
    A = build_weighted_composition(psi, [0.0, lam], alpha, N)
    B = compress(A, [1, m])
    structure_dev = float(max(abs(B[0, 0]), abs(B[0, 1]), abs(B[1, 1])))
    psi_hat = _padded_coeff(psi, m - 1)
    radius = 0.5 * np.sqrt(norm_ratio(1, alpha) / norm_ratio(m, alpha)) * abs(lam * psi_hat)
    h_b = support_function(B, _angle_grid(K))
    radius_dev = float(np.max(np.abs(h_b - radius)))
    containment = _margin(A, DiscSpec(0j, radius), K)
    tol = 1e-10
    passed = structure_dev <= 1e-13 and radius_dev <= tol and containment >= -1e-9
    metrics = {
        "radius_formula": float(radius),
        "radius_swept": float(np.mean(h_b)),
        "radius_dev": radius_dev,
        "structure_dev": structure_dev,
        "containment_margin": containment,
    }
    notes = (
        "the two-index compression is nilpotent, so its range is exactly the "
        "centred disc of half the entry modulus; the truncation is a weighted "
        "shift, so its range is exactly a centred disc too, and each radius "
        "comes from one solve at theta = 0"
    )
    return passed, metrics, tol, notes


@_check(
    "th_circle_3x3",
    "the three-index compression sweeps a circle whose radius follows the first-principles entry formula",
    alpha=(0.0, _as_number), n=(2, _int(2)), m1=(1, _int(1)), m2=(2, _int(2)), N=(16, _int(2)),
    K=(720, _int(8)), psi=([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], _as_pairs),
)
def _run_th_circle_3x3(alpha, n, m1, m2, N, K, psi):
    if m2 <= m1:
        raise UsageError(f"need m2 > m1, got m1={m1}, m2={m2}")
    i1, i2 = n * m1, n * m2
    if N <= i2:
        raise UsageError(f"N must exceed n*m2 = {i2}, got {N}")
    lam = _root_of_unity(n)
    A = build_weighted_composition(psi, [0.0, lam], alpha, N)
    B = compress(A, [0, i1, i2])
    norm_sq = np.exp(-alpha_weight(alpha, i2))
    w1, w2 = norm_sq[i1], norm_sq[i2]
    center = _padded_coeff(psi, 0)
    s21 = np.sqrt(w1) * _padded_coeff(psi, i1)
    s31 = np.sqrt(w2) * _padded_coeff(psi, i2)
    s32 = np.sqrt(w2 / w1) * _padded_coeff(psi, i2 - i1)
    expected = np.array(
        [[center, 0.0, 0.0], [s21, center, 0.0], [s31, s32, center]], dtype=complex
    )
    entry_dev = float(np.max(np.abs(B - expected)))
    radius_formula = 0.5 * np.sqrt(abs(s21) ** 2 + abs(s31) ** 2 + abs(s32) ** 2)
    # the competing index reading uses the coefficient at n(m1 - m2) < 0,
    # which is zero for analytic symbols
    s32_alt = np.sqrt(w2 / w1) * _padded_coeff(psi, i1 - i2)
    radius_alt = 0.5 * np.sqrt(abs(s21) ** 2 + abs(s31) ** 2 + abs(s32_alt) ** 2)
    # weighted template with coefficients (c, 1, 1/c), evaluated under both
    # readings; reported because it reproduces the sweep under neither
    c_ratio = w1 / w2

    def template(k):
        inner = c_ratio * abs(_padded_coeff(psi, i1)) ** 2 + abs(_padded_coeff(psi, k)) ** 2
        return 0.5 * np.sqrt(w2 * (inner + (1.0 / c_ratio) * abs(_padded_coeff(psi, i2)) ** 2))

    theta = _angle_grid(K)
    sweep = boundary_points(B, K)
    h_b = np.array([s for _, _, s in sweep])
    pts = np.array([pt for _, pt, _ in sweep])
    radial = h_b - support_of(np.array([center]), theta)
    radius_dev = float(np.max(np.abs(radial - radius_formula)))
    alt_gap = float(np.min(np.abs(radial - radius_alt)))
    center_dev = float(abs(np.mean(pts) - center))
    # the mean of points on any circle about the centre is the centre; each
    # point must lie on the circle itself
    point_radius_dev = float(np.max(np.abs(np.abs(pts - center) - radius_formula)))
    containment = _margin(A, DiscSpec(center, radius_formula), K)
    tol = 1e-10
    passed = (
        entry_dev <= 1e-12
        and radius_dev <= tol
        and center_dev <= 1e-8
        and point_radius_dev <= tol
        and alt_gap > 1e-3
        and containment >= -1e-9
    )
    metrics = {
        "radius_formula": float(radius_formula),
        "radius_alt_convention": float(radius_alt),
        "template_m2m1": float(template(i2 - i1)),
        "template_m1m2": float(template(i1 - i2)),
        "radius_dev": radius_dev,
        "center_dev": center_dev,
        "point_radius_dev": point_radius_dev,
        "entry_dev": entry_dev,
        "containment_margin": containment,
    }
    notes = (
        "the (3,2) entry carries the symbol coefficient at index n(m2-m1); the "
        "swept radius matches the first-principles entry formula under that "
        "convention only (the n(m1-m2) reading misses by the reported gap), "
        "and the weighted template with coefficients (c, 1, 1/c) reproduces "
        "the sweep under neither reading; where the coefficient at n m2 "
        "vanishes, as for the default psi, the compression minus its centre "
        "has entries at (2,1) and (3,2) alone, a weighted shift, so its range "
        "is exactly a disc, whose radius one solve at theta = 0 gives"
    )
    return passed, metrics, tol, notes


@_check(
    "th_ellipse_rotation",
    "the {e_0, e_k} compression has the predicted elliptical range, contained in the full sweep",
    alpha=(0.0, _as_number), n=(2, _int(2)), p=(0, _int(0)), j=(1, _int(1)), N=(64, _int(2)),
    K=(720, _int(8)), psi=([[1.0, 0.0], [1.0, 0.0]], _as_pairs),
)
def _run_th_ellipse_rotation(alpha, n, p, j, N, K, psi):
    k = n * p + j
    if N <= k:
        raise UsageError(f"N must exceed n*p + j = {k}, got {N}")
    lam = _root_of_unity(n)
    A = build_weighted_composition(psi, [0.0, lam], alpha, N)
    f1_exp = _padded_coeff(psi, 0)
    f2_exp = lam**k * _padded_coeff(psi, 0)
    minor_exp = float(np.sqrt(monomial_norm_sq(k, alpha)) * abs(_padded_coeff(psi, k)))
    return _ellipse_compare(A, [0, k], f1_exp, f2_exp, minor_exp, K)


@_check(
    "th_ellipse_irrational",
    "under an irrational rotation the two-index compression yields the predicted ellipse",
    alpha=(0.0, _as_number), theta=(0.7071067811865476, _as_number), n=(0, _int(0)), m=(1, _int(1)),
    N=(64, _int(2)), K=(720, _int(8)), psi=([[1.0, 0.0], [1.0, 0.0]], _as_pairs),
)
def _run_th_ellipse_irrational(alpha, theta, n, m, N, K, psi):
    if N <= n + m:
        raise UsageError(f"N must exceed n + m = {n + m}, got {N}")
    mu = np.exp(2j * np.pi * theta)
    A = build_weighted_composition(psi, [0.0, mu], alpha, N)
    f1_exp = mu**n * _padded_coeff(psi, 0)
    f2_exp = mu ** (n + m) * _padded_coeff(psi, 0)
    minor_exp = float(
        np.sqrt(norm_ratio(n, alpha) / norm_ratio(n + m, alpha)) * abs(_padded_coeff(psi, m))
    )
    return _ellipse_compare(A, [n, n + m], f1_exp, f2_exp, minor_exp, K)


def _ellipse_compare(A, indices, f1_exp, f2_exp, minor_exp, K):
    """The compression of A onto ``indices`` against the predicted ellipse, and that ellipse inside the range of A."""
    B = compress(A, indices)
    ell = ellipse_from_2x2(B)
    foci_dev = min(
        max(abs(ell.focus1 - f1_exp), abs(ell.focus2 - f2_exp)),
        max(abs(ell.focus1 - f2_exp), abs(ell.focus2 - f1_exp)),
    )
    minor_dev = abs(ell.minor_axis - minor_exp)
    expected = EllipseSpec(f1_exp, f2_exp, minor_exp)
    support_dev = _gap(B, expected, K)
    containment = _margin(A, expected, K)
    tol = 1e-10
    passed = (
        foci_dev <= tol
        and minor_dev <= tol
        and support_dev <= 1e-8
        and containment >= -1e-9
    )
    metrics = {
        "foci_dev": float(foci_dev),
        "minor_dev": float(minor_dev),
        "major_axis": float(expected.major_axis),
        "support_dev": support_dev,
        "containment_margin": containment,
    }
    notes = "two-index compression against the predicted ellipse, then containment of that ellipse in the full sweep"
    return passed, metrics, tol, notes


@_check(
    "mobius_mean_value",
    "the disk mean of a harmonic function composed with an automorphism equals its value at the image of the origin",
    centers=([[0.3, 0.0], [0.0, 0.5], [-0.6, 0.0]], _list_of(_as_complex)), radial=(64, _int(2)),
    angular=(128, _int(2)), degree=(8, _int(1)),
)
def _run_mobius_mean_value(centers, radial, angular, degree):
    # a fixed harmonic dictionary: analytic plus anti-analytic parts with
    # deterministic coefficients
    a = [1.0 / (k + 1.0) for k in range(degree + 1)]
    b = [(-1.0) ** q / (q + 2.0) for q in range(1, degree + 1)]

    def harmonic(z):
        return series_eval(a, z) + series_eval(b, np.conj(z)) * np.conj(z)

    errs = []
    for w in centers:
        if abs(w) >= 1.0:
            raise UsageError(f"centers must lie in the open disk, got |w| = {abs(w)}")

        def composed(z, w=w):
            xi = (w - z) / (1.0 - np.conj(w) * z)
            return harmonic(xi)

        got = disk_quadrature(composed, 0.0, radial, angular)
        errs.append(abs(got - harmonic(np.array(w))))
    tol = 1e-8
    metrics = {f"error_center{i}": float(e) for i, e in enumerate(errs)}
    metrics["max_error"] = float(max(errs))
    notes = (
        "the mean of a harmonic function over the disk equals its value at "
        "the centre, so composing with an automorphism recovers the value at "
        "the image of the origin; stated for the unweighted normalized measure"
    )
    return max(errs) <= tol, metrics, tol, notes


@_check(
    "adjoint_kernel",
    "the adjoint truncation maps kernel vectors to scaled kernel vectors at the image point",
    alpha=(0.0, _as_number), N=(128, _int(2)),
)
def _run_adjoint_kernel(alpha, N):
    pairs = [
        ([1.0, 0.25], [0.0, 0.5]),
        ([0.0, 1.0], [0.0, 0.45, 0.45]),
        ([1.0, 0.0, 1.0], [0.0, -0.8]),
        ([2.0, 1.0, 0.0, -1.0], [0.0, 0.0, 0.5]),
    ]
    ws = [0.5, -0.3 + 0.4j, 0.6j, -0.7]
    worst = 0.0
    for psi, phi in pairs:
        A = build_weighted_composition(psi, phi, alpha, N)
        for w in ws:
            kw = kernel_coeffs(w, alpha, N - 1)
            fw = complex(series_eval(phi, w))
            kfw = kernel_coeffs(fw, alpha, N - 1)
            pw = complex(series_eval(psi, w))
            residual = float(np.linalg.norm(A.matrix.conj().T @ kw - np.conj(pw) * kfw))
            worst = max(worst, residual)
    tol = 1e-5
    return (
        worst <= tol,
        {"max_residual": worst},
        tol,
        "the adjoint truncation sends a kernel vector to the conjugated weight value times the kernel at the image point",
    )


def list_checks():
    """Registry view: (id, claim, default params) in deterministic order."""
    return [(check_id, d.claim, dict(d.defaults)) for check_id, d in _REGISTRY.items()]


def run_check(check_id: str, params: dict | None = None) -> CheckReport:
    """Run one named check, overriding defaults with the given params.

    Unknown ids and unknown parameter names raise UsageError; "seed" is
    accepted everywhere and recorded even though the registered checks
    are deterministic grids.  Every parameter is read before the check
    runs, so a malformed one raises UsageError naming it.
    """
    if check_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise UsageError(f"unknown check id {check_id!r}; known ids: {known}")
    d = _REGISTRY[check_id]
    merged = {**d.defaults, **(params or {})}
    args = _read_fields(merged, d.fields, check_id)
    del args["seed"]
    passed, metrics, tolerance, notes = d.fn(**args)
    metrics = {k: float(v) for k, v in metrics.items()}
    return CheckReport(
        id=check_id,
        params=merged,
        passed=bool(passed),
        metrics=metrics,
        tolerance=float(tolerance),
        notes=notes,
    )


def accepted_overrides(check_id: str, overrides: dict) -> dict:
    """The overrides that check ``check_id`` accepts: its own parameters and "seed".

    So a global --alpha reaches the single-alpha checks and leaves the
    rest alone; an unknown id keeps only "seed", and run_check rejects it.
    """
    defaults = _REGISTRY[check_id].defaults if check_id in _REGISTRY else {}
    return {k: v for k, v in overrides.items() if k in defaults or k == "seed"}


def run_all(overrides: dict | None = None) -> list:
    """Run every registered check in order, each with the overrides it accepts."""
    overrides = dict(overrides or {})
    return [run_check(check_id, accepted_overrides(check_id, overrides)) for check_id in _REGISTRY]
