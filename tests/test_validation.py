"""Input validation shared by every module.

An integer is a Python or NumPy integer, a number is also a float, and a
bool is neither.  Malformed library inputs must raise UsageError at the
call that receives them, not run at a truncated value or leak a TypeError
or IndexError from deeper down.
"""

import numpy as np
import pytest

from bergrange.core import (
    DomainError,
    NumericError,
    UsageError,
    _as_complex,
    _as_int,
    _as_number,
    _as_pairs,
    disk_quadrature,
    kernel_coeffs,
    norm_ratio,
)
from bergrange.numrange import DiscSpec, EllipseSpec, HullPolygon
from bergrange.operators import (
    BiPolySymbol,
    OperatorTruncation,
    build_multiplication,
    build_toeplitz,
    build_weighted_composition,
    compress,
    kernel_form_closed,
    off_block_max,
)


def test_validators_accept_numpy_numbers_and_reject_bools():
    n = _as_int(np.int64(3), "n", 0)
    assert n == 3 and type(n) is int
    assert _as_number(np.float32(0.5), "x") == 0.5
    assert _as_number(np.int64(2), "x") == 2.0
    assert np.array_equal(_as_pairs([(1, np.float64(2.0)), [0.5, 0]], "psi"), [1 + 2j, 0.5])
    assert _as_complex(0.25, "c") == 0.25
    assert _as_complex([0, -1], "c") == -1j
    assert _as_complex(1j, "c") == 1j
    w = _as_complex(np.complex128(0.5 - 2j), "c")
    assert w == 0.5 - 2j and type(w) is complex
    for bad in (True, np.bool_(True), 2.0, "2"):
        with pytest.raises(UsageError, match="^n must be an integer, got "):
            _as_int(bad, "n", 0)
    for bad in (False, "0.5", 1j, [0.5]):
        with pytest.raises(UsageError, match="^x must be a number, got "):
            _as_number(bad, "x")
    for bad in ([[1, True]], [["0.5", "0"]], [[1, 2, 3]], [1.0]):
        with pytest.raises(UsageError, match=r"^psi\[0\] must be a \[re, im\] pair, got "):
            _as_pairs(bad, "psi")
    for bad in ([], (), "ab", 1.0):
        with pytest.raises(UsageError, match=r"^psi must be a non-empty list of \[re, im\] pairs$"):
            _as_pairs(bad, "psi")
    for bad in (True, "1", [1.0]):
        with pytest.raises(UsageError, match="^c must be "):
            _as_complex(bad, "c")


def _one(z):
    return np.ones_like(z)


SYMBOL = [(1, 0, 0.5), (0, 1, 0.5)]


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: disk_quadrature(_one, 0.0, 2.5, 8), "radial_nodes"),
        (lambda: disk_quadrature(_one, 0.0, True, 8), "radial_nodes"),
        (lambda: kernel_form_closed([1.0], [0.0, 0.5], 0.5, True), "alpha"),
        (lambda: norm_ratio(True, 0.0), "n"),
        (lambda: build_toeplitz(SYMBOL, 0.0, True), "truncation"),
        (lambda: build_multiplication([], 0.0, 4), "psi"),
        (lambda: build_weighted_composition([1.0], [[0.0, 0.5]], 0.0, 4), "phi"),
        (lambda: kernel_form_closed("x", [0.0, 0.5], 0.5, 0.0), "psi"),
        (lambda: compress(np.ones(3), [0]), "matrix"),
        (lambda: off_block_max(np.ones(3), 2), "matrix"),
        (lambda: compress(np.ones((2, 3)), [0, 1]), "matrix"),
        (lambda: DiscSpec("x", 1.0), "center"),
        (lambda: DiscSpec("1", "2"), "center"),
        (lambda: EllipseSpec("1", 0, 0.5), "focus1"),
        (lambda: kernel_coeffs("x", 0.0, 2), "w"),
        (lambda: kernel_form_closed([1.0], [0.0, 0.5], "0.5", 0.0), "w"),
        (lambda: BiPolySymbol(((1, 0, "x"),)), "symbol coefficient"),
        (lambda: OperatorTruncation(np.eye(2), "x"), "alpha"),
        (lambda: OperatorTruncation(np.eye(2), True), "alpha"),
    ],
    ids=[
        "quadrature-float-nodes",
        "quadrature-bool-nodes",
        "kernel_form-bool-alpha",
        "norm_ratio-bool",
        "toeplitz-bool-N",
        "multiplication-empty-psi",
        "composition-2d-phi",
        "kernel_form-str-psi",
        "compress-1d",
        "off_block_max-1d",
        "compress-2x3",
        "disc-str-center",
        "disc-str-fields",
        "ellipse-str-focus",
        "kernel_coeffs-str-w",
        "kernel_form-str-w",
        "symbol-str-coeff",
        "truncation-str-alpha",
        "truncation-bool-alpha",
    ],
)
def test_malformed_library_inputs_raise_usage_error(call, name):
    with pytest.raises(UsageError, match=f"^{name} must be "):
        call()


def test_truncation_alpha_and_polygon_vertices_are_read_at_construction():
    # alpha <= -1 is outside the weighted spaces, as for every builder
    with pytest.raises(DomainError, match="^alpha must be "):
        OperatorTruncation(np.eye(2), -5.0)
    # a non-finite vertex fails as in convex_hull, not as a NaN distance later
    with pytest.raises(NumericError, match="non-finite"):
        HullPolygon([np.nan, 1, 1j])
