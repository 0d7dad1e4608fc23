"""Finite matrix truncations of operators on weighted Bergman spaces.

A truncation of size N acts on span{e_0, ..., e_{N-1}} where e_n is the
orthonormal monomial basis; matrices are indexed so that entry (m, n) is
the coefficient of e_m in the image of e_n.

Builders are provided for Toeplitz operators with bi-polynomial symbols,
weighted composition operators with polynomial data, and multiplication
operators (the analytic Toeplitz case, kept separate because its column
structure is simpler and it serves as a cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bergrange.core import (
    DomainError,
    NumericError,
    UsageError,
    _as_complex,
    _as_int,
    _as_matrix,
    _check_alpha,
    _norm,
    alpha_weight,
    kernel_coeffs,
    series_eval,
)

__all__ = [
    "BiPolySymbol",
    "OperatorTruncation",
    "build_toeplitz",
    "build_weighted_composition",
    "build_multiplication",
    "operator_sum",
    "compress",
    "kernel_form_closed",
    "kernel_form_matrix",
    "off_block_max",
]

# unit-circle samples per degree when testing a self-map by sampling;
# the Bernstein margin 1 / (1 - pi / _SELF_MAP_SAMPLES) is then about 1.2%
_SELF_MAP_SAMPLES = 256


@dataclass(frozen=True)
class BiPolySymbol:
    """Finite sum of c * z^p * conj(z)^q terms.

    Duplicate (p, q) pairs are merged and zero terms dropped, so two
    symbols describing the same function compare equal.
    """

    terms: tuple

    def __post_init__(self):
        merged: dict = {}
        for term in self.terms:
            try:
                p, q, c = term
            except (TypeError, ValueError):
                raise UsageError(f"symbol term must be (p, q, coeff), got {term!r}")
            key = (_as_int(p, "symbol exponent p", 0), _as_int(q, "symbol exponent q", 0))
            merged[key] = merged.get(key, 0j) + _as_complex(c, "symbol coefficient")
        clean = tuple(
            (p, q, c) for (p, q), c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", clean)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for p, q, c in self.terms:
            acc = acc + c * z**p * np.conj(z) ** q
        if acc.ndim == 0:
            return complex(acc)
        return acc

    @property
    def max_degree(self) -> int:
        return max((max(p, q) for p, q, _ in self.terms), default=0)


@dataclass(frozen=True)
class OperatorTruncation:
    """An N x N matrix truncation together with the space it lives on."""

    matrix: np.ndarray
    alpha: float
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        m = _as_matrix(self.matrix, f"{self.kind} matrix at alpha={self.alpha}").copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def truncation(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"OperatorTruncation(kind={self.kind!r}, alpha={self.alpha}, N={self.truncation})"


def _as_symbol(symbol) -> BiPolySymbol:
    if isinstance(symbol, BiPolySymbol):
        return symbol
    return BiPolySymbol(tuple(symbol))


def _coeffs(f, name: str, N: int | None = None) -> np.ndarray:
    """The Taylor coefficients ``f`` as a nonempty 1-d complex array; with N, cut or zero-padded to N entries."""
    try:
        c = np.asarray(f, dtype=complex)
    except (TypeError, ValueError):
        c = np.zeros(0)
    if c.ndim != 1 or c.size == 0:
        raise UsageError(f"{name} must be a nonempty 1-d coefficient sequence")
    if N is None:
        return c
    out = np.zeros(N, dtype=complex)
    out[: c.size] = c[:N]
    return out


def build_toeplitz(symbol, alpha: float, N: int) -> OperatorTruncation:
    """Truncated Toeplitz operator with a bi-polynomial symbol.

    For a single term c z^p conj(z)^q the only nonzero entries sit on the
    diagonal stripe m - n = p - q and equal
    c sqrt(r_n r_m) w_{n+p}, formed from log r with a nonpositive exponent.
    """
    sym = _as_symbol(symbol)
    N = _as_int(N, "truncation", 1)
    log_r = alpha_weight(alpha, N - 1 + sym.max_degree)
    A = np.zeros((N, N), dtype=complex)
    n_idx = np.arange(N)
    for p, q, c in sym.terms:
        m_idx = n_idx + p - q
        keep = (m_idx >= 0) & (m_idx < N)
        nn = n_idx[keep]
        mm = m_idx[keep]
        A[mm, nn] += c * np.exp(0.5 * (log_r[nn] + log_r[mm]) - log_r[nn + p])
    return OperatorTruncation(A, alpha, kind="toeplitz")


def _check_self_map(c: np.ndarray):
    """Raise DomainError unless phi passes a floating-point test for mapping the disk into itself.

    A nonconstant polynomial maps the open disk into itself exactly when
    max |phi| <= 1 on the unit circle, and sum |phi_k| <= 1 implies that.
    The test reads that sum from the moduli as math.hypot rounds them
    correctly, summed by math.fsum, so no unit rotation e^{it} z reads
    above 1; it is not exact: the float nearest e^{2 pi i/10} has a modulus
    that exceeds 1 by 2.7e-17 and passes.  Where the sum exceeds 1, phi of
    degree d is evaluated at M = _SELF_MAP_SAMPLES * d points of the circle
    in floating point, and passes where the sampled maximum over 1 - pi d /
    M, which by Bernstein's inequality max |phi'| <= d max |phi| bounds the
    exact maximum over the circle from the exact samples, is at most 1.
    Every other phi is rejected: a non-finite coefficient and a constant of
    modulus 1 or more as no self-map.  ``c`` holds the coefficients of phi.
    """
    # NaN fails every comparison below, so it must be rejected up front
    if not np.all(np.isfinite(c)):
        raise DomainError("phi is not a self-map of the disk: it has a non-finite coefficient")
    d = int(np.flatnonzero(c)[-1]) if np.any(c) else 0
    if d == 0:
        if abs(c[0]) >= 1.0:
            raise DomainError(f"phi is not a self-map of the disk: it is the constant {c[0]:.6f}")
        return
    if math.fsum(math.hypot(z.real, z.imag) for z in c) <= 1.0:
        return
    M = _SELF_MAP_SAMPLES * d
    # the FFT of the coefficients evaluates phi at the M-th roots of unity
    sampled = float(np.max(np.abs(np.fft.fft(c[: d + 1], M))))
    bound = sampled / (1.0 - np.pi * d / M)
    if bound > 1.0:
        raise DomainError(
            f"phi fails the self-map test of the disk: its coefficient moduli sum above 1, and the "
            f"largest |phi| over {M} points of the unit circle is {sampled:.6f}, so the sampled "
            f"bound is {bound:.6f} > 1"
        )


def build_weighted_composition(psi, phi, alpha: float, N: int) -> OperatorTruncation:
    """Truncation of f -> psi * (f o phi) for polynomial psi and phi.

    Column n holds the coefficients of psi * phi^n in the orthonormal
    basis, the z^m one scaled by sqrt(r_n / r_m); an entry too large for
    float64 raises NumericError.  Inputs shorter than the truncation are
    zero-padded.  phi is rejected unless it passes the self-map test of
    ``_check_self_map``, which reads every coefficient of phi, also those
    the truncation cuts away.
    """
    N = _as_int(N, "truncation", 1)
    c = _coeffs(psi, "psi", N)
    phi_c = _coeffs(phi, "phi")
    _check_self_map(phi_c)
    log_r = alpha_weight(alpha, N - 1)
    A = np.empty((N, N), dtype=complex)
    # phi cut to N terms and to its degree makes each step O(N deg phi), not O(N^2)
    phi_c = phi_c[: np.flatnonzero(phi_c[:N]).max(initial=0) + 1]
    # a zero coefficient stays zero even where its scale overflows; any
    # other overflow leaves inf or nan, which OperatorTruncation rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            A[:, n] = c
            if n + 1 < N:
                c = np.convolve(c, phi_c)[:N]
        # one pass scales entry (m, n) by exp(0.5 (log r_n - log r_m)), with
        # the per-entry ops of scaling one column at a time, and resets to +0
        # each entry whose coefficient is exactly zero
        zero = A == 0
        scale = log_r - log_r[:, None]
        scale *= 0.5
        np.exp(scale, out=scale)
        A *= scale
        # freed before OperatorTruncation copies A, so a build holds at most A and its copy
        del scale
        A[zero] = 0
        del zero
    return OperatorTruncation(A, alpha, kind="weighted_composition")


def build_multiplication(psi, alpha: float, N: int) -> OperatorTruncation:
    """Truncated multiplication by an analytic polynomial.

    Entry (m, n) is psi_hat[m-n] sqrt(r_n / r_m) for m >= n.  Agrees with
    the Toeplitz builder on analytic symbols and with the weighted
    composition builder at phi(z) = z.
    """
    N = _as_int(N, "truncation", 1)
    psi_c = _coeffs(psi, "psi", N)
    log_r = alpha_weight(alpha, N - 1)
    A = np.zeros((N, N), dtype=complex)
    for k in range(N):
        c = psi_c[k]
        if c == 0:
            continue
        m = np.arange(k, N)
        n = m - k
        A[m, n] = c * np.exp(0.5 * (log_r[n] - log_r[m]))
    return OperatorTruncation(A, alpha, kind="multiplication")


def operator_sum(ops: Sequence[OperatorTruncation]) -> OperatorTruncation:
    """Sum of truncations living on the same space."""
    ops = list(ops)
    if not ops:
        raise UsageError("operator_sum needs at least one operator")
    first = ops[0]
    for op in ops[1:]:
        if op.truncation != first.truncation:
            raise UsageError(
                f"truncation mismatch in sum: {op.truncation} vs {first.truncation}"
            )
        if op.alpha != first.alpha:
            raise UsageError(f"alpha mismatch in sum: {op.alpha} vs {first.alpha}")
    total = np.zeros_like(first.matrix)
    for op in ops:
        total = total + op.matrix
    return OperatorTruncation(total, first.alpha, kind="sum")


def compress(op, indices) -> np.ndarray:
    """Compression onto the span of the listed basis indices.

    Returns the dense submatrix A[indices, indices] in the given order.
    """
    A = _as_matrix(op)
    if np.ndim(indices) != 1 or len(indices) == 0:
        raise UsageError("indices must be a nonempty 1-d integer sequence")
    idx = [_as_int(i, "index", 0) for i in indices]
    if max(idx) >= A.shape[0]:
        raise UsageError(f"indices out of range for truncation {A.shape[0]}")
    return A[np.ix_(idx, idx)]


def kernel_form_closed(psi, phi, w: complex, alpha: float) -> complex:
    """Quadratic form of a weighted composition at a normalized kernel.

    The adjoint sends the kernel at w to conj(psi(w)) times the kernel at
    phi(w), which gives the closed form
    psi(w) (1-|w|^2)^(alpha+2) / (1 - conj(w) phi(w))^(alpha+2).
    Where either power is subnormal or out of range, or the quotient is
    not finite, it is taken in log space as
    psi(w) exp((alpha+2) (log1p(-|w|^2) - log(1 - conj(w) phi(w)))),
    and NumericError names w and alpha where that is not finite either.
    A non-finite psi raises NumericError, and a phi that fails the self-map
    test of the disk DomainError, as in the builder.
    """
    psi_c, phi_c = _coeffs(psi, "psi"), _coeffs(phi, "phi")
    if not np.all(np.isfinite(psi_c)):
        raise NumericError("psi has a non-finite coefficient")
    _check_self_map(phi_c)
    w = _as_complex(w, "w")
    if abs(w) >= 1.0:
        raise DomainError(f"base point must satisfy |w| < 1, got |w| = {abs(w)}")
    alpha = _check_alpha(alpha)
    pw = series_eval(psi_c, w)
    fw = series_eval(phi_c, w)
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        num = (1.0 - abs(w) ** 2) ** (alpha + 2.0)
        den = (1.0 - np.conj(w) * fw) ** (alpha + 2.0)
        form = pw * num / den
        if not (num >= tiny and tiny <= abs(den) < np.inf and np.isfinite(form)):
            form = pw * np.exp((alpha + 2.0) * (np.log1p(-abs(w) ** 2) - np.log(1.0 - np.conj(w) * fw)))
    if not np.isfinite(form):
        raise NumericError(f"the kernel form at w={w} leaves the float range at alpha={alpha}")
    return form


def kernel_form_matrix(op: OperatorTruncation, w: complex) -> complex:
    """Quadratic form v* A v at the truncated kernel vector, renormalized.

    The truncated kernel is scaled by its own finite norm rather than the
    closed-form norm, so the form is an exact Rayleigh quotient of the
    matrix and lands inside the numerical range of the truncation.
    """
    v = kernel_coeffs(w, op.alpha, op.truncation - 1)
    v = v / _norm(v)
    return complex(v.conj() @ (op.matrix @ v))


def off_block_max(op, order: int) -> float:
    """Largest entry modulus off the residue classes m = n (mod order), 0.0 if there is none.

    Where it is 0, permuting the basis by residue turns the matrix into a
    direct sum of ``order`` blocks.
    """
    order = _as_int(order, "order", 1)
    A = _as_matrix(op)
    idx = np.arange(A.shape[0])
    return float(np.max(np.abs(A[(idx[:, None] - idx) % order != 0]), initial=0.0))
