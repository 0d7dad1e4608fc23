"""Core arithmetic for weighted Bergman spaces on the unit disk.

Conventions used throughout the package:

* area measure is normalized, and the weighted measure carries the factor
  (alpha+1)(1-|z|^2)^alpha, so the total mass of the disk is 1 for every
  alpha > -1;
* the monomial z^n has squared norm w_n = n! Gamma(alpha+2) / Gamma(n+alpha+2),
  and e_n = sqrt(r_n) z^n with r_n = 1/w_n is the orthonormal basis;
* analytic functions are handled as truncated Taylor series, coefficients
  indexed from degree 0.

The ratio r_n lives in one log-domain table, AlphaWeight.log_norm_ratio,
the running sum log r_n = sum_{k<=n} log1p((alpha+1)/k) of the recurrence
r_n = r_{n-1} (n+alpha+1)/n.  Every consumer reads that table: matrix
entries are formed from differences of its logs, which stay O(1) long
after r_n itself leaves float64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi, xlogy

__all__ = [
    "DomainError",
    "UsageError",
    "NumericError",
    "AlphaWeight",
    "alpha_weight",
    "norm_ratio",
    "monomial_norm_sq",
    "TruncatedSeries",
    "series",
    "series_mul",
    "series_pow",
    "series_eval",
    "KernelVector",
    "kernel_coeffs",
    "bipoly_moment",
    "disk_quadrature",
]


class DomainError(ValueError):
    """A mathematical precondition is violated (alpha <= -1, |w| >= 1, ...)."""


class UsageError(ValueError):
    """An argument is structurally wrong (mismatched truncations, bad index)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or untrustworthy values."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= -1.0:
        raise DomainError(f"alpha must be a finite real > -1, got {alpha}")
    return alpha


def norm_ratio(n: int, alpha: float):
    """Squared norm ratio r_n = Gamma(n+alpha+2) / (n! Gamma(alpha+2)).

    Read from the log table of ``alpha_weight``; the value is returned as a
    plain float when it fits, otherwise as an extended-precision scalar
    (the ratio stays finite far beyond float64 range, e.g. around 1e448
    for n = 10^6, alpha = 100).
    """
    alpha = _check_alpha(alpha)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    log_r = alpha_weight(alpha, int(n)).log_norm_ratio[n]
    try:
        return math.exp(log_r)
    except OverflowError:
        return np.exp(np.longdouble(log_r))


def monomial_norm_sq(n: int, alpha: float) -> float:
    """Squared norm of z^n, equal to 1/r_n."""
    return float(1.0 / norm_ratio(n, alpha))


class AlphaWeight:
    """Precomputed norm data for one alpha, indices 0..max_index.

    Attributes
    ----------
    log_norm_ratio : ndarray, log r_n for n <= max_index; builders read this
    norm_ratio : ndarray, r_n = exp(log r_n), inf where it exceeds float64
    monomial_norm_sq : ndarray, w_n = exp(-log r_n), 0 where it underflows
    """

    def __init__(self, alpha: float, max_index: int):
        alpha = _check_alpha(alpha)
        if not isinstance(max_index, (int, np.integer)) or max_index < 0:
            raise UsageError(f"max_index must be a nonnegative integer, got {max_index!r}")
        self.alpha = alpha
        self.max_index = int(max_index)
        k = np.arange(1, self.max_index + 1, dtype=float)
        self.log_norm_ratio = np.concatenate(([0.0], np.cumsum(np.log1p((alpha + 1.0) / k))))
        with np.errstate(over="ignore"):
            self.norm_ratio = np.exp(self.log_norm_ratio)
        self.monomial_norm_sq = np.exp(-self.log_norm_ratio)
        for table in (self.log_norm_ratio, self.norm_ratio, self.monomial_norm_sq):
            table.flags.writeable = False

    def __repr__(self):
        return f"AlphaWeight(alpha={self.alpha}, max_index={self.max_index})"


@lru_cache(maxsize=128)
def alpha_weight(alpha: float, max_index: int) -> AlphaWeight:
    """Cached AlphaWeight table."""
    return AlphaWeight(alpha, max_index)


@dataclass(frozen=True)
class TruncatedSeries:
    """Taylor coefficients of an analytic function, degrees 0..truncation."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise UsageError("coeffs must be a nonempty 1-d sequence")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    def pad_to(self, truncation: int) -> "TruncatedSeries":
        """Extend with zero coefficients, or drop the tail, to the given degree."""
        if truncation < 0:
            raise UsageError("truncation must be >= 0")
        n = truncation + 1
        if n <= self.coeffs.size:
            return TruncatedSeries(self.coeffs[:n])
        out = np.zeros(n, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return TruncatedSeries(out)

    def __call__(self, z):
        return series_eval(self, z)


def series(coeffs: Sequence[complex], truncation: int | None = None) -> TruncatedSeries:
    """Build a TruncatedSeries, optionally zero-padded to a target degree."""
    s = TruncatedSeries(np.asarray(coeffs, dtype=complex))
    if truncation is not None:
        s = s.pad_to(truncation)
    return s


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated back to the common truncation."""
    if a.truncation != b.truncation:
        raise UsageError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )
    n = a.truncation + 1
    return TruncatedSeries(np.convolve(a.coeffs, b.coeffs)[:n])


def series_pow(phi: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power at fixed truncation; k = 0 gives the constant series 1."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise UsageError(f"exponent must be a nonnegative integer, got {k!r}")
    out = np.zeros(phi.truncation + 1, dtype=complex)
    out[0] = 1.0
    result = TruncatedSeries(out)
    base = phi
    k = int(k)
    while k:
        if k & 1:
            result = series_mul(result, base)
        k >>= 1
        if k:
            base = series_mul(base, base)
    return result


def series_eval(a: TruncatedSeries, z):
    """Evaluate by Horner's rule; z may be a scalar or ndarray."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in a.coeffs[::-1]:
        acc = acc * z + c
    if acc.ndim == 0:
        return complex(acc)
    return acc


@dataclass(frozen=True)
class KernelVector:
    """Coefficients of a reproducing kernel vector in the orthonormal basis."""

    base_point: complex
    alpha: float
    coeffs_in_basis: np.ndarray
    normalized: bool

    def __post_init__(self):
        c = np.asarray(self.coeffs_in_basis, dtype=complex).copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs_in_basis", c)


def kernel_coeffs(w: complex, alpha: float, N: int, normalized: bool = False) -> KernelVector:
    """Kernel vector at w, truncated to basis indices 0..N.

    Entry n is sqrt(r_n) conj(w)^n; with ``normalized`` the whole vector is
    scaled by (1-|w|^2)^(alpha/2+1), whose squared coefficient sum then tends
    to 1 as N grows.  Moduli are summed as logs before one exp, so an entry
    stays finite where sqrt(r_n) alone would overflow.
    """
    alpha = _check_alpha(alpha)
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError(f"base point must satisfy |w| < 1, got |w| = {abs(w)}")
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise UsageError(f"N must be a nonnegative integer, got {N!r}")
    n = np.arange(N + 1)
    log_c = 0.5 * alpha_weight(alpha, int(N)).log_norm_ratio + xlogy(n, abs(w))
    if normalized:
        log_c += (alpha / 2.0 + 1.0) * np.log1p(-abs(w) ** 2)
    c = np.exp(log_c) * np.exp(-1j * np.angle(w) * n)
    return KernelVector(w, alpha, c, bool(normalized))


def bipoly_moment(p: int, q: int, alpha: float) -> complex:
    """Weighted moment of z^p conj(z)^q: zero off the diagonal, w_p on it."""
    if not isinstance(p, (int, np.integer)) or not isinstance(q, (int, np.integer)) or p < 0 or q < 0:
        raise UsageError(f"exponents must be nonnegative integers, got ({p!r}, {q!r})")
    _check_alpha(alpha)
    if p != q:
        return 0j
    return complex(monomial_norm_sq(int(p), alpha))


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float):
    x, w = roots_jacobi(n, alpha, 0.0)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def disk_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    radial_nodes: int = 64,
    angular_nodes: int = 128,
) -> complex:
    """Integrate a sampled function over the disk against the weighted measure.

    Radially Gauss-Jacobi in t = r^2 against (1-t)^alpha on [0, 1], mapped
    from the standard [-1, 1] rule; uniform nodes in angle.  Exact for
    z^p conj(z)^q whenever p + q < min(2*radial_nodes, angular_nodes).
    ``f`` must accept a complex ndarray and evaluate elementwise.
    """
    alpha = _check_alpha(alpha)
    if radial_nodes < 1 or angular_nodes < 1:
        raise UsageError("node counts must be >= 1")
    x, wj = _jacobi_rule(int(radial_nodes), alpha)
    t = (x + 1.0) / 2.0
    radial_w = (alpha + 1.0) * 2.0 ** (-(alpha + 1.0)) * wj
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(f(z), dtype=complex)
    if vals.shape != z.shape:
        vals = np.broadcast_to(vals, z.shape)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand produced non-finite samples")
    return complex(np.sum(radial_w * vals.mean(axis=1)))
