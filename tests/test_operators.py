"""Operator builder tests.

Entry-level expected values come from two independent routes: closed-form
ratios of the norm sequence, and direct quadrature of the defining inner
products.  The builders must agree with both, and with each other on the
overlaps (analytic Toeplitz vs multiplication vs composition at phi = z).
"""

import numpy as np
import pytest

from bergrange.core import (
    DomainError,
    NumericError,
    UsageError,
    disk_quadrature,
    kernel_coeffs,
    series_eval,
)
from bergrange.operators import (
    BiPolySymbol,
    OperatorTruncation,
    build_multiplication,
    build_toeplitz,
    build_weighted_composition,
    compress,
    kernel_form_closed,
    kernel_form_matrix,
    off_block_max,
    operator_sum,
)

ALPHAS = [-0.5, 0.0, 1.0, 2.5]


class TestSymbol:
    def test_merge_and_drop(self):
        s = BiPolySymbol(((1, 0, 1.0), (1, 0, 2.0), (0, 1, 0.0)))
        assert s.terms == ((1, 0, 3 + 0j),)

    def test_eval(self):
        s = BiPolySymbol(((1, 0, 1.0), (0, 1, 1.0)))
        assert s(0.3 + 0.4j) == pytest.approx(0.6)

    def test_bad_terms(self):
        with pytest.raises(UsageError):
            BiPolySymbol(((1.5, 0, 1.0),))
        with pytest.raises(UsageError):
            BiPolySymbol(((-1, 0, 1.0),))


class TestToeplitz:
    def test_zsq_modulus_diagonal(self):
        # symbol |z|^2: diagonal (n+1)/(n+alpha+2), nothing off it
        for alpha in ALPHAS:
            T = build_toeplitz([(1, 1, 1.0)], alpha, 12)
            n = np.arange(12)
            want = (n + 1.0) / (n + alpha + 2.0)
            assert np.allclose(np.diag(T.matrix), want, atol=1e-14)
            assert np.max(np.abs(T.matrix - np.diag(np.diag(T.matrix)))) == 0.0

    def test_harmonic_symbol_tridiagonal_hermitian(self):
        T = build_toeplitz([(1, 0, 0.5), (0, 1, 0.5)], 0.0, 10)
        A = T.matrix
        assert np.max(np.abs(A - A.conj().T)) < 1e-14
        # stripe m = n + 1 carries 0.5 sqrt(r_n / r_{n+1}) = 0.5 sqrt((n+1)/(n+2))
        n = np.arange(9)
        assert np.allclose(np.diag(A, -1), 0.5 * np.sqrt((n + 1.0) / (n + 2.0)), atol=1e-14)

    def test_real_symbol_gives_hermitian(self):
        sym = BiPolySymbol(((2, 1, 1 - 2j), (1, 2, 1 + 2j), (0, 0, 3.0), (1, 1, 0.7)))
        for alpha in (0.0, 1.5):
            A = build_toeplitz(sym, alpha, 20).matrix
            assert np.max(np.abs(A - A.conj().T)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    def test_entries_match_quadrature(self, alpha):
        # entry (m, n) = sqrt(r_n r_m) * weighted moment of f z^n conj(z)^m
        terms = [(p, q, 0.3 + 0.1j * (p - q)) for p in range(4) for q in range(3 - p + 1)]
        sym = BiPolySymbol(tuple(terms))
        N = 6
        T = build_toeplitz(sym, alpha, N).matrix
        from bergrange.core import alpha_weight

        ratios = np.exp(alpha_weight(alpha, N))
        for m in range(N):
            for n in range(N):
                val = disk_quadrature(
                    lambda z, m=m, n=n: sym(z) * z**n * np.conj(z) ** m, alpha, 16, 64
                )
                want = np.sqrt(ratios[n] * ratios[m]) * val
                assert abs(T[m, n] - want) < 1e-9


class TestWeightedComposition:
    def test_identity_map(self):
        W = build_weighted_composition([1.0], [0.0, 1.0], 0.0, 16)
        assert np.allclose(W.matrix, np.eye(16), atol=1e-15)

    def test_constant_phi_has_rank_one(self):
        W = build_weighted_composition([1.0, 1.0], [0.5], 0.0, 12)
        assert np.linalg.matrix_rank(W.matrix) == 1
        # phi = 0 additionally kills every column except the first
        Z = build_weighted_composition([1.0, 1.0], [0.0], 0.0, 12)
        assert np.linalg.matrix_rank(Z.matrix) == 1
        assert np.max(np.abs(Z.matrix[:, 1:])) == 0.0

    def test_matches_multiplication_at_identity_phi(self):
        psi = [1.0, 0.5, 0.25j]
        for alpha in ALPHAS:
            M = build_multiplication(psi, alpha, 24).matrix
            W = build_weighted_composition(psi, [0.0, 1.0], alpha, 24).matrix
            assert np.max(np.abs(M - W)) < 1e-14

    def test_multiplication_matches_toeplitz(self):
        psi = [1.0, 0.5, 0.25]
        terms = [(0, 0, 1.0), (1, 0, 0.5), (2, 0, 0.25)]
        for alpha in (0.0, 1.0):
            M = build_multiplication(psi, alpha, 32).matrix
            T = build_toeplitz(terms, alpha, 32).matrix
            assert np.max(np.abs(M - T)) < 1e-13

    def test_shift_subdiagonal(self):
        # multiplication by z at alpha = 0: entries sqrt((n+1)/(n+2))
        M = build_multiplication([0.0, 1.0], 0.0, 10).matrix
        n = np.arange(9)
        assert np.allclose(np.diag(M, -1), np.sqrt((n + 1.0) / (n + 2.0)), atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_self_map(self):
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0.0, 1.2], 0.0, 8)
        # the smallest float modulus above 1, read correctly rounded
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0.0, 1.0 + 2.0**-52], 0.0, 8)
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0.5, 1.0], 0.0, 8)
        # both leave the disk only near the unit circle
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0.0, 1.0005], 0.0, 8)
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0.0005, 0.0, 0.0, 0.0, 0.0, 0.9996], 0.0, 8)
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [1.0], 0.0, 8)
        # the test covers the coefficients the truncation cuts away
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], [0, 0, 0, 0, 0, 5.0], 0.0, 4)
        # NaN compares False with every bound, and inf must not reach the FFT
        for phi in ([0.0, np.nan], [np.nan], [0.5, 0.1, np.nan], [0.0, np.inf]):
            with pytest.raises(DomainError, match="self-map"):
                build_weighted_composition([1.0], phi, 0.0, 8)

    def test_every_unit_rotation_is_certified(self):
        # numpy's complex abs reads some of these floats as 1 + 2^-52
        ts = np.concatenate([np.arange(1, 2000) / 2000, 1.0 / np.arange(1, 200)])
        for lam in np.exp(2j * np.pi * ts):
            assert build_weighted_composition([1.0], [0.0, lam], 0.0, 2).truncation == 2

    def test_self_map_certified_by_sampling(self):
        # |1 + z - z^2| peaks at sqrt(5) on the circle while its coefficients
        # sum to 3, so only the sampled Bernstein bound decides these
        W = build_weighted_composition([1.0], 0.4 * np.array([1.0, 1.0, -1.0]), 0.0, 8)
        assert W.truncation == 8
        with pytest.raises(DomainError, match="self-map"):
            build_weighted_composition([1.0], 0.45 * np.array([1.0, 1.0, -1.0]), 0.0, 8)

    def test_composition_action_on_polynomial(self):
        # column n of the matrix must reproduce psi * phi^n coefficient-wise
        psi = np.array([0.5, 0.0, 1.0])
        phi = np.array([0.1, 0.4, 0.2])
        N = 16
        W = build_weighted_composition(psi, phi, 1.0, N)
        from bergrange.core import alpha_weight

        ratios = np.exp(alpha_weight(1.0, N - 1))
        n = 3
        target = psi
        for _ in range(n):
            target = np.convolve(target, phi)
        got = W.matrix[:, n] * np.sqrt(ratios) / np.sqrt(ratios[n])
        assert np.allclose(got, np.pad(target, (0, N - target.size)), atol=1e-14)


class TestSumAndCompress:
    def test_sum_matches_joint_symbol(self):
        A = build_toeplitz([(1, 0, 1.0)], 0.0, 16)
        B = build_toeplitz([(0, 1, 1.0)], 0.0, 16)
        C = build_toeplitz([(1, 0, 1.0), (0, 1, 1.0)], 0.0, 16)
        S = operator_sum([A, B])
        assert np.max(np.abs(S.matrix - C.matrix)) < 1e-15
        assert S.kind == "sum"

    def test_sum_rejects_mismatch(self):
        A = build_toeplitz([(1, 0, 1.0)], 0.0, 16)
        B = build_toeplitz([(1, 0, 1.0)], 0.0, 8)
        with pytest.raises(UsageError):
            operator_sum([A, B])
        C = build_toeplitz([(1, 0, 1.0)], 1.0, 16)
        with pytest.raises(UsageError):
            operator_sum([A, C])

    def test_compress_picks_submatrix(self):
        W = build_weighted_composition([1.0, 0.5], [0.0, 0.0, 0.5], 0.0, 12)
        idx = [1, 4, 7]
        got = compress(W, idx)
        want = np.array([[W.matrix[i, j] for j in idx] for i in idx])
        assert np.array_equal(got, want)

    def test_compress_bad_indices(self):
        W = build_multiplication([0.0, 1.0], 0.0, 8)
        with pytest.raises(UsageError):
            compress(W, [0, 8])


class TestKernelForms:
    def test_closed_form_frozen_value(self):
        # psi = 1, phi = z/2, w = 1/2, alpha = 0: (0.75 / 0.875)^2 = 36/49
        got = kernel_form_closed([1.0], [0.0, 0.5], 0.5, 0.0)
        assert got == pytest.approx(36.0 / 49.0, rel=1e-14)

    def test_identity_operator_form_is_one(self):
        from bergrange.operators import OperatorTruncation

        I = OperatorTruncation(np.eye(32), 0.0)
        assert kernel_form_matrix(I, 0.4 - 0.2j) == pytest.approx(1.0, abs=1e-14)

    def test_matrix_form_converges_to_closed_form(self):
        psi, phi = [1.0], [0.0, 0.5]
        W = build_weighted_composition(psi, phi, 0.0, 128)
        got = kernel_form_matrix(W, 0.5)
        assert abs(got - 36.0 / 49.0) < 1e-6

    def test_adjoint_sends_kernel_to_kernel(self):
        # A* k_w = conj(psi(w)) k_phi(w), up to truncation tails
        cases = [([1.0, 0.25], [0.0, 0.5]), ([0.0, 1.0], [0.0, 0.45, 0.45])]
        for psi, phi in cases:
            W = build_weighted_composition(psi, phi, 0.0, 128)
            for w in (0.5, -0.3 + 0.4j):
                kw = kernel_coeffs(w, 0.0, 127)
                fw = series_eval(phi, w)
                kfw = kernel_coeffs(fw, 0.0, 127)
                pw = series_eval(psi, w)
                lhs = W.matrix.conj().T @ kw
                assert np.linalg.norm(lhs - np.conj(pw) * kfw) < 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("helper", [kernel_form_closed])
@pytest.mark.parametrize(
    "psi, phi, error, match",
    [
        ([np.nan], [0.0, 0.5], NumericError, "psi has a non-finite"),
        ([1.0, np.inf], [0.0, 0.5], NumericError, "psi has a non-finite"),
        ([1.0], [np.inf], DomainError, "phi .* non-finite"),
        ([1.0], [0.0, np.nan], DomainError, "phi .* non-finite"),
        ([1.0], [0.0, 1.2], DomainError, "self-map"),
    ],
    ids=["nan-psi", "inf-psi", "inf-phi", "nan-phi", "phi-leaves-the-disk"],
)
def test_kernel_helpers_check_psi_and_phi_at_their_source(helper, psi, phi, error, match):
    # as in the builder: psi finite, phi passing the self-map test of the disk
    with pytest.raises(error, match=match):
        helper(psi, phi, 0.3, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLargeAlpha:
    """At alpha = 400 the ratio r_n overflows float64 from n = 682 on, and at
    alpha = 2e4 sqrt(r_n) does from n = 268; the entries themselves do not."""

    def test_zsq_diagonal(self):
        alpha, N = 400.0, 800
        T = build_toeplitz([(1, 1, 1.0)], alpha, N).matrix
        n = np.arange(N)
        assert np.allclose(np.diag(T), (n + 1.0) / (n + alpha + 2.0), rtol=0.0, atol=1e-12)
        assert np.count_nonzero(T - np.diag(np.diag(T))) == 0

    def test_shift_subdiagonal(self):
        alpha, N = 400.0, 800
        M = build_multiplication([0, 1], alpha, N).matrix
        n = np.arange(N - 1)
        assert np.allclose(np.diag(M, -1), np.sqrt((n + 1.0) / (n + alpha + 2.0)), rtol=1e-12, atol=0.0)

    def test_zero_coefficients_give_zero_entries(self):
        # phi(0) = 0, so psi * phi^n has no z^m term for m < n, where
        # sqrt(r_n / r_m) itself overflows
        alpha, N = 2e4, 300
        W = build_weighted_composition([1, 0.5], [0, 0.5], alpha, N).matrix
        n = np.arange(N)
        assert np.all(np.isfinite(W))
        assert np.allclose(np.diag(W), 0.5**n, rtol=1e-12, atol=0.0)
        sub = 0.5 ** (n[:-1] + 1) * np.sqrt((n[:-1] + 1.0) / (n[:-1] + alpha + 2.0))
        assert np.allclose(np.diag(W, -1), sub, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(np.tril(W, -2)) == 0 and np.count_nonzero(np.triu(W, 1)) == 0

    def test_overflow_is_finite_or_numeric_error(self):
        try:
            W = build_weighted_composition([1, 0.5], [0.5, 0.3], 2e4, 300).matrix
        except NumericError:
            return
        assert np.all(np.isfinite(W))

    def test_truncation_rejects_non_finite_matrix(self):
        with pytest.raises(NumericError):
            OperatorTruncation(np.array([[1.0, np.nan], [0.0, 1.0]]), 0.0)


class TestNesting:
    """A_N is the leading N x N block of A_{N+1}, bit for bit, as the
    truncation-monotonicity tests of the numerical range assume."""

    BUILDERS = {
        "toeplitz": lambda alpha, N: build_toeplitz(
            [(1, 0, 0.5), (0, 1, 0.25 + 0.1j), (2, 1, 0.3), (1, 1, 0.2)], alpha, N
        ),
        "weighted_composition": lambda alpha, N: build_weighted_composition(
            [1.0, 0.5, -0.25j], [0.0, 0.5, 0.25], alpha, N
        ),
        "multiplication": lambda alpha, N: build_multiplication([0.0, 1.0, 0.3], alpha, N),
    }

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 400.0])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_truncation_is_the_leading_block_of_the_next(self, kind, alpha):
        build = self.BUILDERS[kind]
        # N = 700 reaches past n = 682, where r_n overflows at alpha = 400
        for N in (16, 700):
            small, big = build(alpha, N).matrix, build(alpha, N + 1).matrix
            assert np.array_equal(big[:N, :N], small), N


class TestBlocks:
    def test_block_structure_positive(self):
        # multiplication by g(z^2), g = 1 + z/2: entries on residue classes mod 2
        M = build_multiplication([1.0, 0.0, 0.5], 0.5, 33)
        assert off_block_max(M, 2) == 0.0

    def test_block_structure_negative(self):
        M = build_multiplication([1.0, 0.0, 0.5], 0.5, 33)
        assert off_block_max(M, 3) > 0.2
