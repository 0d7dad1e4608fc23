"""Acceptance gate: twelve headline criteria at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Each test re-derives its expected values locally so a failure
points at the library, not at a stale constant.
"""

import math

import numpy as np

from bergrange.checks import run_check
from bergrange.core import kernel_coeffs, monomial_norm_sq, series_eval
from bergrange.numrange import (
    EllipseSpec,
    ellipse_from_2x2,
    numerical_range_hull,
    support_function,
)
from bergrange.operators import (
    build_multiplication,
    build_toeplitz,
    build_weighted_composition,
    compress,
    kernel_form_closed,
    kernel_form_matrix,
)


def _grid(K: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(K) / K


def _report(n: int, message: str) -> None:
    print(f"PASS  criterion {n:2d}: {message}")


def test_criterion_01_bergman_shift_fills_unit_disc():
    T = build_toeplitz([(1, 0, 1.0)], 0.0, 200)
    h = support_function(T, _grid(360))
    gap = float(np.max(np.abs(1.0 - h)))
    assert gap <= 0.02
    assert float(np.max(h)) < 1.0
    assert h[0] >= 0.98
    _report(1, f"Bergman shift at N=200 fills the unit disc (support gap {gap:.2e})")


def test_criterion_02_rotation_polygon_and_segment():
    A4 = build_weighted_composition([1.0], [0.0, 1j], 0.0, 16)
    hull4 = numerical_range_hull(A4, 360)
    expected = np.array([1.0, 1j, -1.0, -1j])
    assert hull4.vertices.size == 4
    dev4 = max(float(np.min(np.abs(hull4.vertices - e))) for e in expected)
    assert dev4 <= 1e-12
    A2 = build_weighted_composition([1.0], [0.0, -1.0], 0.0, 16)
    hull2 = numerical_range_hull(A2, 360)
    width = float(np.max(np.abs(hull2.vertices.imag)))
    dev2 = max(float(np.min(np.abs(hull2.vertices - e))) for e in (1.0, -1.0))
    assert hull2.vertices.size == 2
    assert width <= 1e-12
    assert dev2 <= 1e-12
    _report(2, f"order-4 rotation gives vertices 1, i, -1, -i (dev {dev4:.1e}); order 2 gives the segment [-1, 1]")


def test_criterion_03_modulus_squared_diagonal():
    from bergrange.core import alpha_weight, disk_quadrature

    worst_off = 0.0
    worst_formula = 0.0
    worst_quad = 0.0
    for alpha in (0.0, 1.0):
        T = build_toeplitz([(1, 1, 1.0)], alpha, 64).matrix
        off = float(np.max(np.abs(T - np.diag(np.diag(T)))))
        n = np.arange(64)
        formula_dev = float(np.max(np.abs(np.real(np.diag(T)) - (n + 1.0) / (n + alpha + 2.0))))
        ratios = np.exp(alpha_weight(alpha, 64))
        quad = np.array(
            [
                ratios[k]
                * disk_quadrature(lambda z, k=k: np.abs(z) ** (2 * k + 2), alpha, 80, 8).real
                for k in range(64)
            ]
        )
        quad_dev = float(np.max(np.abs(np.real(np.diag(T)) - quad)))
        worst_off = max(worst_off, off)
        worst_formula = max(worst_formula, formula_dev)
        worst_quad = max(worst_quad, quad_dev)
    assert worst_off <= 1e-12
    assert worst_formula <= 1e-12
    assert worst_quad <= 1e-10
    _report(
        3,
        "symbol |z|^2 is diagonal with entries (n+1)/(n+alpha+2) "
        f"(quadrature dev {worst_quad:.1e}); the pi-scaled variant of the "
        "formula reflects the unnormalized area measure",
    )


def test_criterion_04_real_part_spectrum_interval():
    T = build_toeplitz([(1, 0, 0.5), (0, 1, 0.5)], 0.0, 128)
    vals = np.linalg.eigvalsh(T.matrix)
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    assert lam_max <= 1.0 + 1e-12
    assert lam_min >= -1.0 - 1e-12
    assert lam_max >= 0.97
    assert lam_min <= -0.97
    _report(4, f"symbol Re z at N=128 keeps [{lam_min:.4f}, {lam_max:.4f}] inside [-1, 1] and covers [-0.97, 0.97]")


def test_criterion_05_witness_disc():
    N = 64
    A = build_weighted_composition([0.0, 1.0], [0.0, 0.0, 1.0], 0.0, N)
    w1 = monomial_norm_sq(1, 0.0)
    radius = w1 / (1.0 + w1)
    assert abs(radius - 1.0 / 3.0) <= 1e-15
    scale = 1.0 / math.sqrt(1.0 + w1)
    worst = 0.0
    for j in range(32):
        lam = np.exp(2j * np.pi * j / 32)
        v = np.zeros(N, dtype=complex)
        v[0] = lam * scale
        v[1] = math.sqrt(w1) * scale
        form = complex(v.conj() @ (A.matrix @ v))
        worst = max(worst, abs(form - lam / 3.0))
    assert worst <= 1e-10
    margin = float(np.min(support_function(A, _grid(360)) - radius))
    assert margin >= -1e-9
    _report(5, f"witness forms equal lambda/3 (dev {worst:.1e}) and the disc of radius 1/3 sits in the swept range")


def test_criterion_06_nilpotent_compression_radius():
    A = build_weighted_composition([0.0, 1.0], [0.0, 1.0], 0.0, 64)
    B = compress(A, [1, 2])
    h = support_function(B, _grid(720))
    expected = 0.5 * math.sqrt(2.0 / 3.0)
    dev = float(np.max(np.abs(h - expected)))
    assert dev <= 1e-10
    _report(6, f"the e_1, e_2 compression sweeps the disc of radius (1/2)sqrt(2/3) (dev {dev:.1e})")


def test_criterion_07_ellipse_compressions():
    theta = _grid(720)
    # rational rotation: n=2, p=0, j=1, psi = 1+z
    A = build_weighted_composition([1.0, 1.0], [0.0, -1.0], 0.0, 64)
    B = compress(A, [0, 1])
    ell = ellipse_from_2x2(B)
    foci_dev = min(
        max(abs(ell.focus1 - 1.0), abs(ell.focus2 + 1.0)),
        max(abs(ell.focus1 + 1.0), abs(ell.focus2 - 1.0)),
    )
    minor_dev = abs(ell.minor_axis - math.sqrt(0.5))
    major_dev = abs(ell.major_axis - math.sqrt(4.5))
    assert foci_dev <= 1e-10
    assert minor_dev <= 1e-10
    assert major_dev <= 1e-10
    margin = float(
        np.min(support_function(A, theta) - EllipseSpec(1.0, -1.0, math.sqrt(0.5)).support(theta))
    )
    assert margin >= -1e-9
    # irrational rotation: theta = 1/sqrt(2), n=0, m=1
    mu = np.exp(2j * np.pi / math.sqrt(2.0))
    A2 = build_weighted_composition([1.0, 1.0], [0.0, mu], 0.0, 64)
    B2 = compress(A2, [0, 1])
    ell2 = ellipse_from_2x2(B2)
    foci_dev2 = min(
        max(abs(ell2.focus1 - 1.0), abs(ell2.focus2 - mu)),
        max(abs(ell2.focus1 - mu), abs(ell2.focus2 - 1.0)),
    )
    minor_dev2 = abs(ell2.minor_axis - math.sqrt(0.5))
    major_expected = math.hypot(math.sqrt(0.5), abs(1.0 - mu))
    major_dev2 = abs(ell2.major_axis - major_expected)
    assert foci_dev2 <= 1e-10
    assert minor_dev2 <= 1e-10
    assert major_dev2 <= 1e-10
    margin2 = float(
        np.min(
            support_function(A2, theta)
            - EllipseSpec(1.0, complex(mu), math.sqrt(0.5)).support(theta)
        )
    )
    assert margin2 >= -1e-9
    _report(7, "compressions give the predicted ellipses (foci, minor, major all within 1e-10), contained in the full sweeps")


def test_criterion_08_circle_convention():
    report = run_check("th_circle_3x3")
    assert report.passed
    assert report.metrics["center_dev"] <= 1e-8
    assert report.metrics["radius_dev"] <= 1e-10
    gap = abs(report.metrics["radius_alt_convention"] - report.metrics["radius_formula"])
    assert gap > 1e-2
    _report(
        8,
        "3x3 compression sweeps a circle centred at 1; the radius follows the "
        "index convention that reads the middle entry at n(m2-m1) "
        f"(radius {report.metrics['radius_formula']:.6f}, other reading off by {gap:.3f})",
    )


def test_criterion_09_kernel_identities():
    closed = kernel_form_closed([1.0], [0.0, 0.5], 0.5, 0.0)
    assert abs(closed - 36.0 / 49.0) <= 1e-12
    A = build_weighted_composition([1.0], [0.0, 0.5], 0.0, 128)
    dev = abs(kernel_form_matrix(A, 0.5) - closed)
    assert dev <= 1e-6
    report = run_check("adjoint_kernel")
    assert report.passed
    assert report.metrics["max_residual"] <= 1e-5
    _report(9, f"kernel form matches 36/49 (dev {dev:.1e}); adjoint-kernel residual {report.metrics['max_residual']:.1e}")


def test_criterion_10_zero_containment():
    A = build_weighted_composition([1.0, 1.0], [0.0, -1.0], 0.0, 32)
    margin = float(np.min(support_function(A, _grid(360))))
    assert margin >= 1e-3
    report = run_check("remark_counterexample")
    assert report.passed
    bounds = [report.metrics[f"distance_lower_bound_N{N}"] for N in (16, 32, 64, 128)]
    assert all(b > 0 for b in bounds)
    _report(
        10,
        f"origin is interior for the sign-flip instance (margin {margin:.3f}) and "
        "certified exterior for the counterexample at N = 16, 32, 64, 128",
    )


def test_criterion_11_mobius_mean_value():
    report = run_check("mobius_mean_value")
    assert report.passed
    assert report.metrics["max_error"] <= 1e-8
    _report(11, f"automorphism mean-value identity holds to {report.metrics['max_error']:.1e} at 64x128 nodes")


def test_criterion_12_property_suites():
    theta = _grid(256)
    # monotone nesting of truncations
    small = build_multiplication([0.0, 1.0, 0.3], 0.0, 48)
    large = build_multiplication([0.0, 1.0, 0.3], 0.0, 80)
    assert np.array_equal(large.matrix[:48, :48], small.matrix)
    nest_dev = float(np.max(support_function(small, theta) - support_function(large, theta)))
    assert nest_dev <= 1e-12
    # unitary invariance
    rng = np.random.default_rng(7)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    inv_dev = float(np.max(np.abs(support_function(M, theta) - support_function(Q @ M @ Q.conj().T, theta))))
    assert inv_dev <= 1e-8
    # two by two elliptical-range oracle
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        M2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ell = ellipse_from_2x2(M2)
        gap = float(np.max(np.abs(support_function(M2, theta) - ell.support(theta))))
        worst = max(worst, gap)
    assert worst <= 1e-7
    # bounded ratio sequence
    report = run_check("l11_bounded")
    assert report.passed
    _report(
        12,
        "nesting, unitary invariance, the 2x2 ellipse oracle "
        f"(worst gap {worst:.1e}), and the bounded ratio sequence all hold",
    )
