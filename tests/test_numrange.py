"""Numerical range sweep tests.

The oracle for 2 x 2 matrices is the elliptical range description (foci
at the eigenvalues, minor axis from the trace defect), whose support
function has a closed form; sweeps are compared against it in support
form to avoid the inscribed-polygon sag.  Larger cases rely on exact
structural facts: truncation monotonicity, unitary invariance, affine
equivariance.
"""

import numpy as np
import pytest

from bergrange.core import NumericError, UsageError
from bergrange.numrange import (
    DiscSpec,
    EllipseSpec,
    HullPolygon,
    boundary_points,
    convex_hull,
    ellipse_from_2x2,
    hermitian_extreme_eig,
    hull_hausdorff,
    numerical_range_hull,
    regular_polygon,
    sample_image_hull,
    shape_containment,
    support_function,
    support_of,
)
from bergrange.operators import build_multiplication

GRID = 2.0 * np.pi * np.arange(256) / 256


class TestExtremeEig:
    def test_residual_holds_on_random_hermitian(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        H = (X + X.conj().T) / 2.0
        lam, v = hermitian_extreme_eig(H, "max")
        assert np.linalg.norm(H @ v - lam * v) < 1e-10 * np.max(np.abs(H)) * np.sqrt(50)
        lo, _ = hermitian_extreme_eig(H, "min")
        assert lo < lam

    def test_rejects_non_hermitian(self):
        with pytest.raises(UsageError):
            hermitian_extreme_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            hermitian_extreme_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSweepKernel:
    @staticmethod
    def _matrices():
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 24):
            yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # repeated top eigenvalue: the boundary point may be any mix of e_0 and e_2
        yield np.diag([2.0, 1j, 2.0, -1.0 - 1j]).astype(complex)

    def test_boundary_rows_lie_on_their_support_lines(self):
        for A in self._matrices():
            for th, p, s in boundary_points(A, 90):
                assert abs((np.exp(-1j * th) * p).real - s) <= 1e-12 * max(1.0, abs(s))

    def test_boundary_supports_equal_support_function(self):
        for A in self._matrices():
            rows = boundary_points(A, 90)
            thetas = np.array([th for th, _, _ in rows])
            assert np.array_equal(np.array([s for _, _, s in rows]), support_function(A, thetas))

    def test_point_cloud_support_matches_its_hull(self):
        rng = np.random.default_rng(13)
        cloud = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        want = HullPolygon.from_points(cloud).support(GRID)
        assert np.max(np.abs(support_of(cloud, GRID) - want)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_hermitian_part_raises(self):
        # finite entries whose Hermitian part overflows to infinity
        A = np.full((2, 2), 1e308, dtype=complex)
        with pytest.raises(NumericError):
            support_function(A, GRID)
        with pytest.raises(NumericError):
            boundary_points(A, 8)


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
        assert hull.n_vertices == 4
        got = sorted((round(v.real, 9), round(v.imag, 9)) for v in hull.vertices)
        want = sorted([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        assert got == want

    def test_square_vs_circumscribed_polygon_hausdorff(self):
        # hull of diag(1, i, -1, -i) against the regular 360-gon in the unit
        # circle: farthest point is the 45-degree vertex, at distance
        # 1 - 1/sqrt(2) from the square
        square = numerical_range_hull(np.diag([1.0, 1j, -1.0, -1j]), 360)
        gon = HullPolygon.from_points(regular_polygon(360))
        d = hull_hausdorff(square, gon)
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
        hull = HullPolygon.from_points(pts)
        # every input point is inside the hull
        for p in pts[::37]:
            assert hull.contains(complex(p), tol=1e-9)
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

    def test_signed_distance(self):
        square = HullPolygon.from_points([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        assert square.signed_distance(0j) == pytest.approx(1.0, abs=1e-12)
        assert square.signed_distance(2 + 0j) == pytest.approx(-1.0, abs=1e-12)
        assert square.contains(0.999 + 0.999j)
        assert not square.contains(1.001 + 0j)

    def test_boundary_samples_lie_on_boundary(self):
        tri = HullPolygon.from_points([0j, 1 + 0j, 1j])
        samples = tri.boundary_samples(300)
        for s in samples[::17]:
            assert abs(tri.signed_distance(complex(s))) < 1e-12

    def test_support_of_dispatch(self):
        hull = HullPolygon.from_points([0j, 1 + 0j, 1j])
        disc = DiscSpec(0.5, 0.5)
        th = np.array([0.0, np.pi / 2.0])
        assert np.allclose(support_of(hull, th), [1.0, 1.0])
        assert np.allclose(support_of(disc, th), [1.0, 0.5])
        assert np.allclose(support_of(np.array([1j, 2j, -1j]), th), [0.0, 2.0])

    def test_shape_containment_margins(self):
        inner = DiscSpec(0j, 0.5)
        outer = DiscSpec(0j, 0.75)
        assert shape_containment(inner, outer) == pytest.approx(0.25, abs=1e-12)
        assert shape_containment(outer, inner) == pytest.approx(-0.25, abs=1e-12)

    def test_regular_polygon_bad_order(self):
        with pytest.raises(UsageError):
            regular_polygon(2)


class TestEllipseSpec:
    def test_degenerate_segment_support(self):
        seg = EllipseSpec(0j, 2 + 0j, 0.0)
        th = np.array([0.0, np.pi, np.pi / 2.0])
        assert np.allclose(seg.support(th), [2.0, 0.0, 0.0], atol=1e-12)

    def test_boundary_points_satisfy_focal_condition(self):
        ell = EllipseSpec(-1 + 0j, 1 + 0j, np.sqrt(0.5))
        pts = ell.boundary(64)
        total = np.abs(pts - ell.focus1) + np.abs(pts - ell.focus2)
        assert np.max(np.abs(total - ell.major_axis)) < 1e-12


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
        moved = HullPolygon.from_points(c * hull_a.vertices + d)
        assert hull_hausdorff(hull_b, moved) < 1e-9


class TestImageHull:
    def test_polynomial_image_hull(self):
        from bergrange.core import series

        f = series([0.5, 0.5])  # 0.5 + 0.5 z: image of the disk is a disc
        hull = sample_image_hull(f, n_angles=720)
        disc = DiscSpec(0.5, 0.5)
        th = 2.0 * np.pi * np.arange(720) / 720
        assert np.max(np.abs(support_of(hull, th) - disc.support(th))) < 2e-3

    def test_boundary_only_sampling(self):
        from bergrange.core import series

        f = series([0.0, 1.0])
        hull = sample_image_hull(f, radii=[1.0], n_angles=1024)
        # hull of the unit circle samples: support 1 up to polygon sag
        th = np.array([0.0, 1.0, 2.0])
        assert np.max(np.abs(support_of(hull, th) - 1.0)) < 1e-4
