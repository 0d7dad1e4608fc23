"""Core arithmetic for weighted Bergman spaces on the unit disk.

Conventions used throughout the package:

* area measure is normalized, and the weighted measure carries the factor
  (alpha+1)(1-|z|^2)^alpha, so the total mass of the disk is 1 for every
  alpha > -1;
* the monomial z^n has squared norm w_n = n! Gamma(alpha+2) / Gamma(n+alpha+2),
  and e_n = sqrt(r_n) z^n with r_n = 1/w_n is the orthonormal basis;
* analytic polynomials are plain sequences of Taylor coefficients,
  indexed from degree 0.

The ratio r_n lives in one log-domain table, the read-only array
alpha_weight(alpha, max_index) of log r_n for n <= max_index, cached per
alpha and size.  It is the running sum log r_n = sum_{k<=n}
log1p((alpha+1)/k) of the recurrence r_n = r_{n-1} (n+alpha+1)/n.  Every
consumer reads that table: matrix entries are formed from differences of
its logs, which stay O(1) long after r_n itself leaves float64 range.  Single values come from the
scalars norm_ratio and monomial_norm_sq, which sum the same entry the same
way, without building or caching a table.

disk_quadrature integrates against the weighted measure with a Gauss-Jacobi
rule in r^2, built here by Golub and Welsch's method (Math. Comp. 23, 1969):
the nodes are the eigenvalues of the Jacobi matrix, and the weights are the
Christoffel numbers of the orthonormal recurrence, which sum to 1.  The rule
is exact for z^p conj(z)^q whenever p + q < min(2*radial_nodes,
angular_nodes).  The package needs numpy alone until a sweep loads
scipy's LAPACK and BLAS extension modules, without the package
scipy.linalg.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "UsageError",
    "NumericError",
    "alpha_weight",
    "norm_ratio",
    "monomial_norm_sq",
    "series_eval",
    "kernel_coeffs",
    "disk_quadrature",
]


class DomainError(ValueError):
    """A mathematical precondition is violated (alpha <= -1, |w| >= 1, ...)."""


class UsageError(ValueError):
    """An argument is structurally wrong (mismatched truncations, bad index)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or untrustworthy values."""


# Input validators shared by every module.  An integer is a Python or NumPy
# integer, a number is also a Python or NumPy float, and bool is neither;
# ``where`` names the value in the UsageError raised for anything else.


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _as_number(value, where: str) -> float:
    if not _is_number(value):
        raise UsageError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{where} must be >= {minimum}, got {value}")
    return int(value)


def _int(minimum: int):
    """Reader of an integer >= minimum."""
    return lambda value, where: _as_int(value, where, minimum)


def _as_list(value, where: str, items: str) -> list:
    """A non-empty list or tuple, whose entries the caller checks."""
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"{where} must be a non-empty list of {items}")
    return value


def _list_of(read, items: str = "values"):
    """Reader of a non-empty list whose entry i is read as ``read(entry, "where[i]")``."""
    return lambda values, where: [
        read(v, f"{where}[{i}]") for i, v in enumerate(_as_list(values, where, items))
    ]


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be an object")
    return value


# the default of a field that must be given
_REQUIRED = object()


def _read_fields(raw, fields: dict, where: str, prefix: str = "") -> dict:
    """Read the object ``raw`` by a table that maps each name to (default, reader).

    A name outside the table is rejected, naming the allowed ones.  A missing
    field takes its default, unless that is ``_REQUIRED``; a given one is
    read as ``reader(value, prefix + name)``.  Fields are read in table order.
    """
    unknown = sorted(set(_as_object(raw, where)) - set(fields))
    if unknown:
        raise UsageError(f"unknown field {unknown[0]!r} in {where}; allowed: {sorted(fields)}")
    out = {}
    for name, (default, read) in fields.items():
        if name in raw:
            out[name] = read(raw[name], prefix + name)
        elif default is _REQUIRED:
            raise UsageError(f"missing field {name!r} in {where}")
        else:
            out[name] = default
    return out


def _as_pair(value, where: str) -> complex:
    """The complex number re + i im from a [re, im] pair."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise UsageError(f"{where} must be a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _as_pairs(value, where: str) -> np.ndarray:
    pairs = _as_list(value, where, "[re, im] pairs")
    return np.array([_as_pair(pair, f"{where}[{i}]") for i, pair in enumerate(pairs)], dtype=complex)


def _as_complex(value, where: str) -> complex:
    """A number, a Python or NumPy complex, or a [re, im] pair; never a str or bool."""
    if isinstance(value, (list, tuple)):
        return _as_pair(value, where)
    if isinstance(value, (complex, np.complexfloating)):
        return complex(value)
    return complex(_as_number(value, where))


def _as_matrix(A, where: str = "matrix") -> np.ndarray:
    """A nonempty, finite, square complex array, read from A.matrix where A has one."""
    M = np.asarray(getattr(A, "matrix", A), dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise UsageError(f"{where} must be square and nonempty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError(f"{where} has non-finite entries")
    return M


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x, taken on x 2^-e with every |x_i| < 2^e and scaled back, so that no square overflows.

    Both scalings are exact, so the result has the bits of
    ``np.linalg.norm(x)`` wherever that neither overflows nor underflows.
    e is at least -1000, so that 2^-e is a float.
    """
    e = max(int(np.frexp(np.max(np.abs(x), initial=0.0))[1]), -1000)
    return float(np.ldexp(np.linalg.norm(x * 2.0**-e), e))


def _check_alpha(alpha: float) -> float:
    alpha = _as_number(alpha, "alpha")
    if not np.isfinite(alpha) or alpha <= -1.0:
        raise DomainError(f"alpha must be a finite real > -1, got {alpha}")
    return alpha


def norm_ratio(n: int, alpha: float):
    """Squared norm ratio r_n = Gamma(n+alpha+2) / (n! Gamma(alpha+2)).

    The log is the entry n of the ``alpha_weight`` table, summed the same way
    but neither read from nor stored in the ``alpha_weight`` cache.  The
    value is returned as a plain float when it fits, otherwise as an
    extended-precision scalar (the ratio stays finite far beyond float64
    range, e.g. around 1e448 for n = 10^6, alpha = 100).
    """
    alpha = _check_alpha(alpha)
    n = _as_int(n, "n", 0)
    log_r = float(_log_norm_ratios(alpha, n)[n])
    try:
        return math.exp(log_r)
    except OverflowError:
        return np.exp(np.longdouble(log_r))


def monomial_norm_sq(n: int, alpha: float) -> float:
    """Squared norm of z^n, equal to 1/r_n."""
    return float(1.0 / norm_ratio(n, alpha))


def _log_norm_ratios(alpha: float, max_index: int) -> np.ndarray:
    """log r_n for n = 0..max_index, as the running sum of log1p((alpha+1)/k)."""
    k = np.arange(1, max_index + 1, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.log1p((alpha + 1.0) / k))))


@lru_cache(maxsize=128)
def alpha_weight(alpha: float, max_index: int) -> np.ndarray:
    """The cached, read-only table of log r_n for n = 0..max_index."""
    log_r = _log_norm_ratios(_check_alpha(alpha), _as_int(max_index, "max_index", 0))
    log_r.flags.writeable = False
    return log_r


def series_eval(coeffs, z):
    """The polynomial with Taylor coefficients ``coeffs``, degree 0 first, at z, by Horner's rule; z may be a scalar or ndarray."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    if acc.ndim == 0:
        return complex(acc)
    return acc


def kernel_coeffs(w: complex, alpha: float, N: int) -> np.ndarray:
    """Read-only coefficients of the kernel vector at w in the orthonormal basis, indices 0..N.

    Entry n is sqrt(r_n) conj(w)^n.  Moduli are summed as logs before one
    exp, so an entry stays finite where sqrt(r_n) alone would overflow; an
    entry whose modulus still leaves the float range raises NumericError
    naming w and alpha.
    """
    alpha = _check_alpha(alpha)
    w = _as_complex(w, "w")
    if abs(w) >= 1.0:
        raise DomainError(f"base point must satisfy |w| < 1, got |w| = {abs(w)}")
    N = _as_int(N, "N", 0)
    n = np.arange(N + 1)
    log_c = 0.5 * alpha_weight(alpha, N)
    # plus n log|w|, where 0 log 0 = 0: at w = 0 only entry 0 is nonzero
    log_c = log_c + n * math.log(abs(w)) if w else np.where(n == 0, log_c, -np.inf)
    with np.errstate(over="ignore"):
        modulus = np.exp(log_c)
    if not np.all(np.isfinite(modulus)):
        raise NumericError(f"the kernel coefficients at w={w} leave the float range at alpha={alpha}")
    c = modulus * np.exp(-1j * np.angle(w) * n)
    c.flags.writeable = False
    return c


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight (1-x)^alpha, the weights summing to 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Jacobi polynomials p_k, with diagonal a and off-diagonal b.
    Each weight is the Christoffel number 1 / sum_{k<n} p_k(x)^2 of the
    probability measure, which keeps tiny weights to relative accuracy.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + alpha
    a = np.concatenate(([-alpha / (alpha + 2.0)], -alpha * alpha / (s * (s + 2.0))))
    b = 2.0 * k * (k + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b, -1))
    p_prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for a_j, b_lo, b_hi in zip(a, np.append(0.0, b), b):
            p_prev, p = p, ((x - a_j) * p - b_lo * p_prev) / b_hi
            total += p * p
    # a sum past float range (inf, or nan once p overflows) is a weight below 1e-308
    w = np.where(total < np.inf, 1.0 / total, 0.0)
    w /= w.sum()
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
    from the standard [-1, 1] rule: Golub-Welsch nodes and Christoffel
    weights that sum to 1, the mass of the weighted measure, so no gamma
    factor is formed and any alpha > -1 works.  Uniform nodes in angle.
    Exact for z^p conj(z)^q whenever p + q < min(2*radial_nodes, angular_nodes).
    ``f`` must accept a complex ndarray and evaluate elementwise.
    """
    alpha = _check_alpha(alpha)
    radial_nodes = _as_int(radial_nodes, "radial_nodes", 1)
    angular_nodes = _as_int(angular_nodes, "angular_nodes", 1)
    x, radial_w = _jacobi_rule(radial_nodes, alpha)
    t = (x + 1.0) / 2.0
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(f(z), dtype=complex)
    if vals.shape != z.shape:
        vals = np.broadcast_to(vals, z.shape)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand produced non-finite samples")
    return complex(np.sum(radial_w * vals.mean(axis=1)))
