"""Tests for the named check registry.

The full suite is run once per session through a module-scoped fixture;
individual tests then interrogate the reports.  Expected metric values
asserted here are re-derived inline (norm recurrences, Gamma ratios)
rather than read back from the library.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from bergrange import checks, numrange
from bergrange.checks import CheckReport, accepted_overrides, list_checks, run_all, run_check
from bergrange.core import NumericError, UsageError

EXPECTED_IDS = [
    "t1_spectrum",
    "t3_harmonic_range",
    "c1_multiplication",
    "zsq_diagonal",
    "l11_bounded",
    "block_decomposition",
    "th1_rotation_hull",
    "c2_polygon",
    "th2_symmetric",
    "theo1_kernel_sum",
    "pro1_rank_one",
    "theo2_zero_interior",
    "theo3_zero_interior",
    "remark_counterexample",
    "th_disc_TH1",
    "th_disc_TH2",
    "th_circle_3x3",
    "th_ellipse_rotation",
    "th_ellipse_irrational",
    "mobius_mean_value",
    "adjoint_kernel",
]


@pytest.fixture(scope="module")
def all_reports():
    reports = run_all()
    return {r.id: r for r in reports}


def test_registry_shape():
    listing = list_checks()
    ids = [entry[0] for entry in listing]
    assert ids == EXPECTED_IDS
    assert len(set(ids)) == len(ids)
    for check_id, claim, defaults in listing:
        assert claim.strip(), check_id
        assert isinstance(defaults, dict)
        json.dumps(defaults)


def test_listing_returns_copies():
    listing = list_checks()
    listing[0][2]["alpha"] = 99.0
    assert list_checks()[0][2] != listing[0][2] or "alpha" not in listing[0][2]


def test_unknown_id_rejected():
    with pytest.raises(UsageError, match="zsq_diagonal"):
        run_check("no_such_check")


def test_unknown_param_rejected():
    with pytest.raises(UsageError, match="allowed"):
        run_check("l11_bounded", {"bogus": 1})


def test_seed_is_accepted_and_recorded():
    report = run_check("l11_bounded", {"seed": 7})
    assert report.params["seed"] == 7
    assert report.passed


def test_reports_are_deterministic():
    for check_id in ("zsq_diagonal", "l11_bounded"):
        first = run_check(check_id)
        second = run_check(check_id)
        assert first.metrics == second.metrics
        assert first.passed == second.passed
        assert first.to_dict() == second.to_dict()


def test_report_serializes_to_json():
    report = run_check("theo3_zero_interior")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["id"] == "theo3_zero_interior"
    assert payload["pass"] is True
    assert all(isinstance(v, float) for v in payload["metrics"].values())


def test_honest_failure_path():
    report = run_check("theo3_zero_interior", {"margin": 2.0})
    assert not report.passed
    assert report.metrics["margin"] < 2.0


def test_all_checks_pass_at_defaults(all_reports):
    failures = [r.id for r in all_reports.values() if not r.passed]
    assert failures == []
    assert set(all_reports) == set(EXPECTED_IDS)


def test_zsq_first_eigenvalue(all_reports):
    assert all_reports["zsq_diagonal"].metrics["lambda_0"] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zsq_quadrature_oracle_is_finite_or_fails_where_r_k_overflows():
    # at alpha = 400, r_k leaves float64 range from k = 682, where the
    # quadrature of |z|^(2k+2) underflows to 0: inf * 0 must not reach a metric
    try:
        report = run_check("zsq_diagonal", {"alphas": [400.0], "N": 700})
    except NumericError as exc:
        assert "k = 682" in str(exc)
        return
    assert all(math.isfinite(v) for v in report.metrics.values())
    json.dumps(report.to_dict(), allow_nan=False)


def test_a_report_refuses_a_non_finite_metric():
    with pytest.raises(NumericError, match=r"check c2_polygon has a non-finite metric gap: nan"):
        CheckReport("c2_polygon", {}, True, {"ok": 0.0, "gap": math.nan}, 1e-9)


def _returning(check_id, metrics):
    """The registry entry of ``check_id`` with a body that returns ``metrics``."""
    return dataclasses.replace(checks._REGISTRY[check_id], fn=lambda **params: (True, metrics, 1e-9, ""))


def test_a_non_finite_metric_is_a_numeric_error_on_the_command_line(capsys, monkeypatch):
    from bergrange import cli

    monkeypatch.setitem(checks._REGISTRY, "c2_polygon", _returning("c2_polygon", {"ok": 0.0, "gap": math.nan}))
    assert cli.main(["check", "c2_polygon"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: check c2_polygon has a non-finite metric gap: nan\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1e3, 1e4])
def test_theo1_reports_finite_metrics_at_a_large_alpha(alpha):
    # (1 - |w|^2)^(alpha+2) and (1 - conj(w) phi(w))^(alpha+2) underflow
    # together here; the closed form is then taken in log space
    report = run_check("theo1_kernel_sum", {"alpha": alpha})
    assert not report.passed
    assert all(math.isfinite(v) for v in report.metrics.values())
    json.dumps(report.to_dict(), allow_nan=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pro1_names_alpha_where_its_radius_leaves_the_float_range():
    # the disc radius is about e^872 and the ellipse's kernel_sq about e^943
    with pytest.raises(NumericError, match=r"^the disc radius leaves the float range at alpha=10000\.0$"):
        run_check("pro1_rank_one", {"alpha": 1e4})
    # from alpha = 7525 or so kernel_sq alone does
    with pytest.raises(NumericError, match=r"^the ellipse kernel_sq leaves the float range at alpha=8000\.0$"):
        run_check("pro1_rank_one", {"alpha": 8000.0})
    report = run_check("pro1_rank_one", {"alpha": 1e3})
    assert report.metrics["disc_radius"] == pytest.approx(1.7316412918597303e37, rel=1e-12)


def test_check_all_reports_every_check_that_completes(capsys, monkeypatch):
    from bergrange import cli

    assert cli.main(["check", "all", "--alpha", "10000"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 20 and "pro1_rank_one" not in [json.loads(line)["id"] for line in lines]
    assert captured.err == "error: check pro1_rank_one: the disc radius leaves the float range at alpha=10000.0\n"
    # so does the first check of the order, and the others all pass
    monkeypatch.setitem(checks._REGISTRY, "t1_spectrum", _returning("t1_spectrum", {"gap": math.inf}))
    assert cli.main(["check", "all"]) == 2
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["id"] for r in reports] == EXPECTED_IDS[1:] and all(r["pass"] for r in reports)
    # the report's refusal names the check already, and is not prefixed with it again
    assert captured.err == "error: check t1_spectrum has a non-finite metric gap: inf\n"


def test_disc_radius_is_one_third(all_reports):
    # w_1/(1+w_1) with w_1 = 1/2 at alpha = 0
    assert all_reports["th_disc_TH1"].metrics["radius"] == pytest.approx(1 / 3, abs=1e-14)


def test_nilpotent_disc_radius(all_reports):
    expected = 0.5 * math.sqrt(2.0 / 3.0)
    assert all_reports["th_disc_TH2"].metrics["radius_formula"] == pytest.approx(
        expected, abs=1e-14
    )


def test_circle_radius_and_convention(all_reports):
    m = all_reports["th_circle_3x3"].metrics
    # entries sqrt(1/3) and sqrt(3/5) give radius (1/2) sqrt(14/15)
    expected = 0.5 * math.sqrt(1.0 / 3.0 + 3.0 / 5.0)
    assert m["radius_formula"] == pytest.approx(expected, abs=1e-14)
    assert m["radius_dev"] <= 1e-10
    # the competing index reading drops the middle entry and misses the sweep
    assert abs(m["radius_alt_convention"] - m["radius_formula"]) > 1e-2


def test_ellipse_axes(all_reports):
    m = all_reports["th_ellipse_rotation"].metrics
    # foci +-1 and minor sqrt(1/2) give major sqrt(4.5)
    assert m["major_axis"] == pytest.approx(math.sqrt(4.5), abs=1e-12)
    assert m["support_dev"] <= 1e-8


def test_l11_limit_against_loggamma(all_reports):
    m = all_reports["l11_bounded"].metrics
    for mm, cc in [(2, 1.5), (3, 2.0)]:
        n = 64
        log_x = (
            gammaln(n + 1.0)
            + gammaln(n * mm + cc)
            - gammaln(n * mm + 1.0)
            - gammaln(n + cc)
        )
        key = f"sup_m{mm}_c{cc:g}"
        assert m[key] >= math.exp(log_x) - 1e-12
        assert m[key] <= float(mm) ** (cc - 1.0) * (1.0 + 1e-10)


def test_remark_certificate_scales(all_reports):
    m = all_reports["remark_counterexample"].metrics
    for N in (16, 32, 64, 128):
        assert m[f"scaled_min_eig_N{N}"] > 0.1
        assert m[f"distance_lower_bound_N{N}"] > 0.0
    # the swept polygon is inscribed in the range, so its distance from the
    # origin must dominate the rigorous congruence bound
    for N in (16, 32):
        assert m[f"polygon_distance_N{N}"] >= m[f"distance_lower_bound_N{N}"] * (1 - 1e-6)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 5.0])
def test_remark_gershgorin_bound_lies_below_the_least_eigenvalue(alpha):
    # the proven bound never exceeds the eigensolver's least eigenvalue of S
    # at any N the check runs, and never falls below the closed-form limit
    # 1 - sqrt(2)/4, which holds for every N
    report = run_check("remark_counterexample", {"alpha": alpha})
    limit = 1.0 - math.sqrt(2.0) / 4.0
    assert report.passed and report.metrics["gershgorin_limit"] == limit
    for N in (16, 32, 64, 128):
        S = checks._scaled_hermitian(checks.build_weighted_composition([1.0, 0.25], [0.0, 0.5], alpha, N).matrix)
        lower = checks._gershgorin_lower(S)
        assert report.metrics[f"gershgorin_lower_N{N}"] == lower
        assert limit - 1e-12 <= lower <= np.linalg.eigvalsh(S)[0], (alpha, N)


def test_remark_gershgorin_bound_fails_for_a_heavy_weight(monkeypatch):
    # psi = 1 + 2z scales the off-diagonal of S to sqrt(2) c_n > 1/2, so the
    # row sums pass the unit diagonal and the certificate must fail; a
    # certificate that fails fails the check
    failing = []
    for N in (16, 32, 64, 128):
        S = checks._scaled_hermitian(checks.build_weighted_composition([1.0, 2.0], [0.0, 0.5], 0.0, N).matrix)
        failing.append(checks._gershgorin_lower(S))
        assert failing[-1] < 0.0, N
    monkeypatch.setattr(checks, "_gershgorin_lower", lambda S: failing[0])
    assert not run_check("remark_counterexample").passed


def test_remark_refuses_an_N_past_the_normal_range():
    # from about N = 1020 the entries 2^-n of the truncation, and the ones
    # below them, are subnormal or zero, and S = D H D would fail a bound
    # that holds at every N: the check names N and stops instead; at N =
    # 1000 every entry is still normal and the bound holds
    with pytest.raises(UsageError, match="N=1100 is too large"):
        run_check("remark_counterexample", {"schedule": [1100]})
    report = run_check("remark_counterexample", {"schedule": [1000]})
    assert report.passed and report.metrics["gershgorin_lower_N1000"] > 0.6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check_id", ["theo1_kernel_sum", "adjoint_kernel"])
def test_kernel_checks_decide_or_name_alpha_where_the_kernels_are_huge(check_id):
    # at alpha = 1e5 the truncated kernels reach about 1e205, whose squares
    # leave the float range: each check must decide with finite metrics, or
    # refuse that alpha by name, and never stop on an overflow warning
    try:
        report = run_check(check_id, {"alpha": 1e5})
    except (UsageError, NumericError) as error:
        assert "alpha=100000" in str(error)
    else:
        assert report.metrics and all(math.isfinite(value) for value in report.metrics.values())


@pytest.mark.parametrize("alpha", [3e7, 1e8])
@pytest.mark.parametrize("check_id", ["theo1_kernel_sum", "adjoint_kernel"])
def test_kernel_checks_refuse_an_alpha_whose_kernels_leave_the_float_range(check_id, alpha):
    # from about alpha = 3e7 a kernel coefficient's modulus passes the
    # largest float: the check must name alpha, and never pass on the NaN
    # residuals that the overflow would leave
    with pytest.raises(NumericError, match=re.escape(f"alpha={alpha}")):
        run_check(check_id, {"alpha": alpha})


def test_circle_check_fails_when_graded_points_leave_the_circle(monkeypatch):
    # every point of the graded compression moved radially outward by 0.01:
    # the mean of the points stays at the centre, so center_dev cannot see
    # it, but point_radius_dev must, and fail the check
    closed_ends = numrange._Graded.closed_ends

    def pushed(block, c, s):
        supports, points = closed_ends(block, c, s)

        def moved():
            p = points()
            return p + 0.01 * (p - block.center) / np.abs(p - block.center)

        return supports, moved

    monkeypatch.setattr(numrange._Graded, "closed_ends", pushed)
    report = run_check("th_circle_3x3")
    assert not report.passed
    assert report.metrics["center_dev"] <= 1e-8
    assert report.metrics["point_radius_dev"] == pytest.approx(0.01, abs=1e-12)


def test_run_all_applies_overrides_only_where_accepted():
    reports = {r.id: r for r in run_all({"N": 24})}
    assert list(reports) == EXPECTED_IDS
    assert reports["theo3_zero_interior"].params["N"] == 24
    assert reports["theo3_zero_interior"].passed
    assert "N" not in reports["l11_bounded"].params


def test_run_all_ends_at_the_first_error_unless_given_somewhere_to_send_it(monkeypatch):
    ids = EXPECTED_IDS[:3]
    registry = {check_id: _returning(check_id, {"gap": 0.0}) for check_id in ids}
    registry[ids[1]] = _returning(ids[1], {"gap": math.nan})
    monkeypatch.setattr(checks, "_REGISTRY", registry)
    with pytest.raises(NumericError, match=f"^check {ids[1]} has a non-finite metric gap: nan$"):
        run_all()
    errors = []
    reports = run_all(on_error=lambda check_id, exc: errors.append((check_id, type(exc))))
    assert [r.id for r in reports] == [ids[0], ids[2]]
    assert errors == [(ids[1], NumericError)]


@pytest.mark.parametrize(
    "check_id, params, name",
    [
        ("l11_bounded", {"pairs": [[1.7, 2.5]]}, "pairs[0][0]"),
        ("th_ellipse_rotation", {"p": 0.5}, "p"),
        ("th_ellipse_irrational", {"n": 0.9}, "n"),
        ("th_disc_TH1", {"m": True}, "m"),
        ("c1_multiplication", {"psi": [["0.5", "0"], ["0.5", "0"]]}, "psi[0]"),
        ("th_disc_TH2", {"lam": "x"}, "lam"),
        ("l11_bounded", {"seed": 1.5}, "seed"),
    ],
)
def test_check_rejects_a_parameter_it_would_not_run_at(check_id, params, name):
    # each of these used to run at a truncated or default value and
    # record the given one, or to fail with a bare ValueError
    with pytest.raises(UsageError, match=f"^{re.escape(name)} must be "):
        run_check(check_id, params)


@pytest.mark.parametrize(
    "check_id, name",
    [(check_id, name) for check_id, _, defaults in list_checks() for name in defaults],
)
def test_every_parameter_is_read_before_the_check_runs(check_id, name):
    # a bool is no integer, number, pair or list, so every reader rejects it
    with pytest.raises(UsageError, match=f"^{re.escape(name)} must be "):
        run_check(check_id, {name: True})


def test_readme_table_lists_every_check_with_its_claim():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Named checks", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().replace("`", "").replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in section.splitlines()
        if line.startswith("| ") and not line.startswith(("| id ", "| ---"))
    ]
    assert rows == [[check_id, claim] for check_id, claim, _ in list_checks()]


def test_accepted_overrides_keep_each_checks_own_parameters():
    overrides = {"alpha": 0.5, "N": 24, "seed": 3}
    assert accepted_overrides("t1_spectrum", overrides) == overrides
    assert accepted_overrides("zsq_diagonal", overrides) == {"N": 24, "seed": 3}
    assert accepted_overrides("mobius_mean_value", overrides) == {"seed": 3}
    # an unknown id keeps only "seed" and is left for run_check to reject
    assert accepted_overrides("no_such_check", overrides) == {"seed": 3}
    with pytest.raises(UsageError, match="unknown check id"):
        run_check("no_such_check", accepted_overrides("no_such_check", overrides))


def test_unknown_parameter_message_names_the_allowed_fields():
    with pytest.raises(UsageError) as info:
        run_check("l11_bounded", {"bogus": 1})
    assert str(info.value) == "unknown field 'bogus' in l11_bounded; allowed: ['n_max', 'pairs', 'seed']"


def test_c2_polygon_keeps_every_vertex_of_odd_and_even_orders():
    # at orders 7 and 15 the hull once dropped a vertex for a point on an edge
    report = run_check("c2_polygon", {"orders": [5, 7, 13, 15]})
    assert report.passed, report.metrics
    assert max(report.metrics.values()) <= 1e-12


@pytest.mark.parametrize(
    "check_id, params",
    [
        # th1 needs a weight g(z^10) at order 10: here 0.5 + 0.5 z^10
        ("th1_rotation_hull", {"n": 10, "psi": [[0.5, 0.0]] + [[0.0, 0.0]] * 9 + [[0.5, 0.0]]}),
        ("th_ellipse_rotation", {"n": 10}),
        ("th_ellipse_irrational", {"theta": 0.1}),
        ("block_decomposition", {"orders": [10]}),
        ("c2_polygon", {"orders": [10]}),
    ],
)
def test_rotations_whose_coefficient_rounds_to_modulus_one_are_built(check_id, params):
    # the float e^{2 pi i / 10} once read as |lambda| = 1 + 2^-52 and failed the self-map test
    assert run_check(check_id, params).passed


def test_quarter_turn_rotations_are_exact(monkeypatch):
    # np.exp leaves a stray part near 1e-16 at orders 1, 2 and 4, which kept
    # the order-2 rotation matrices complex and off the sweep's mirror
    assert [checks._root_of_unity(n) for n in (1, 2, 4)] == [1.0, -1.0, 1j]
    assert all(checks._root_of_unity(n) == np.exp(2j * np.pi / n) for n in (3, 5, 6, 9, 10))
    built = []
    original = checks.build_weighted_composition
    monkeypatch.setattr(checks, "build_weighted_composition", lambda *args: built.append(original(*args)) or built[-1])
    assert run_check("th2_symmetric", {"orders": [2], "N": 96}).passed
    assert len(built) == 1 and not built[0].matrix.imag.any()


def test_th2_measures_its_symmetry_on_independent_solves(monkeypatch):
    # the grid sweep of an n-fold symmetric matrix copies one window to the
    # others, so symmetry_dev_n reads a second sweep per order: at most 12
    # angles off the grid, rotations by 2 pi m / n of two of them, each
    # solved alone.  Its value is the spread of those supports, which
    # rounding makes nonzero at alpha = 0.5
    calls = []
    original = checks.support_function
    monkeypatch.setattr(checks, "support_function", lambda A, thetas: calls.append((np.array(thetas), original(A, thetas))) or calls[-1][1])
    report = run_check("th2_symmetric", {"alpha": 0.5})
    assert report.passed and len(calls) == 4
    for order, (grid, _), (probes, h) in zip((2, 3), calls[::2], calls[1::2]):
        assert np.array_equal(grid, numrange._angle_grid(360)) and probes.size == 2 * order <= 12
        assert np.all(probes * 360 / (2 * np.pi) % 1 != 0)
        rotations = probes.reshape(2, order) - probes.reshape(2, order)[:, :1]
        assert np.allclose(rotations, 2 * np.pi * np.arange(order) / order, rtol=0, atol=1e-15)
        spread = h.reshape(2, order) - h.reshape(2, order)[:, :1]
        assert report.metrics[f"symmetry_dev_n{order}"] == float(np.max(np.abs(spread)))
    assert 0.0 < max(report.metrics["symmetry_dev_n2"], report.metrics["symmetry_dev_n3"]) <= 1e-8


def test_th2_runs_on_a_grid_that_no_order_divides():
    # the symmetry is measured off the grid and the image gap on it, so a
    # prime K, which copies no angle, needs no divisibility by the orders
    report = run_check("th2_symmetric", {"K": 359})
    assert report.passed and report.params["K"] == 359
    assert set(report.metrics) == {f"{name}_n{order}" for name in ("equivariance_dev", "symmetry_dev", "image_hausdorff") for order in (2, 3)}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_th1_rejects_a_weight_not_of_the_form_g_of_z_to_the_n(n):
    # the default weight 0.5 + 0.5 z^3 once ran at these orders and failed with a Hausdorff gap near 0.3
    with pytest.raises(UsageError, match=rf"^psi must have the form g\(z\^n\), .* and n={n} does not divide 3$"):
        run_check("th1_rotation_hull", {"n": n})


def test_th1_holds_for_a_weight_of_the_form_g_of_z_to_the_n():
    report = run_check("th1_rotation_hull", {"n": 4, "psi": [[0.5, 0.0]] + [[0.0, 0.0]] * 3 + [[0.5, 0.0]]})
    assert report.passed, report.metrics


def _th1_operator(monkeypatch, params=None):
    """(the matrix that th1_rotation_hull compares with the rotated images, its report)."""
    caught, gap = [], checks._gap
    monkeypatch.setattr(checks, "_gap", lambda A, shape, K: caught.append(A) or gap(A, shape, K))
    report = run_check("th1_rotation_hull", params)
    (A,) = caught
    return np.asarray(getattr(A, "matrix", A)), report


@pytest.mark.parametrize("alpha, N", [(0.0, 192), (0.5, 192), (2.0, 48), (-0.5, 192)])
def test_th1_sweeps_the_exact_rotation_of_the_built_composition(monkeypatch, alpha, N):
    # th1 sweeps M_psi diag(lam^(k mod 3)), the composition with the
    # rotation weighted by psi: it matches the builder, whose lam^k comes
    # from k repeated products, entrywise to c N eps with c = 1 (entries of
    # modulus at most 1/2 here, the largest gap 0.47 N eps), and each
    # residue class mod 3 keeps the exact constant diagonal psi_0 lam^r
    A, _ = _th1_operator(monkeypatch, {"alpha": alpha, "N": N})
    lam = checks._root_of_unity(3)
    W = checks.build_weighted_composition([0.5, 0.0, 0.0, 0.5], [0.0, lam], alpha, N).matrix
    assert np.max(np.abs(A - W)) <= 1.0 * N * np.finfo(float).eps
    diagonal = np.diagonal(A)
    for r in range(3):
        assert np.all(diagonal[r::3] == diagonal[r]), r


def test_th1_answers_its_three_classes_as_discs_in_three_reductions(monkeypatch):
    made, init = [], numrange._Tridiagonal.__init__
    monkeypatch.setattr(numrange._Tridiagonal, "__init__", lambda T, *args: made.append(1) or init(T, *args))
    A, report = _th1_operator(monkeypatch)
    assert report.passed and len(made) == 3
    assert [type(block) for block in numrange._Sweep(A, numrange._angle_grid(360)).blocks] == [numrange._Graded] * 3


# sweeps per check at the defaults; each comparison with a closed form sweeps
# its range once, by a full sweep or by the margin's, and a check not listed
# here sweeps nothing.  th2_symmetric also measures the symmetry of each
# order on its own sweep of a few arbitrary angles
SWEEPS = {
    "t3_harmonic_range": 1,
    "c1_multiplication": 1,
    "th1_rotation_hull": 1,
    "c2_polygon": 4,
    "th2_symmetric": 4,
    "pro1_rank_one": 3,
    "theo2_zero_interior": 4,
    "theo3_zero_interior": 1,
    "remark_counterexample": 2,
    "th_disc_TH1": 1,
    "th_disc_TH2": 2,
    "th_circle_3x3": 2,
    "th_ellipse_rotation": 2,
    "th_ellipse_irrational": 2,
}


def test_each_check_sweeps_each_range_once(monkeypatch):
    calls = []
    for module, name in ((numrange, "_sweep"), (checks, "_grid_margin")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, original=original, **kwargs: calls.append(1) or original(*args, **kwargs))
    counts = {}
    for check_id in EXPECTED_IDS:
        before = len(calls)
        run_check(check_id)
        counts[check_id] = len(calls) - before
    assert counts == {check_id: SWEEPS.get(check_id, 0) for check_id in EXPECTED_IDS}
    assert sum(counts.values()) == 30


# tridiagonal reductions per check at the defaults, 1550 in all.  A margin
# solves every 8th pair and the last, then the pairs whose lower bound can
# still reach the minimum: 15 of the 91 pairs of each theo2 matrix, 14 of
# 91 for theo3, and 29 of 181 and 53 of 360 for the containment of the two
# ellipse checks at K = 720, whose 2 x 2 support_dev gaps still take 181
# and 360.  A full sweep solves every looped block at every pair.  th1's
# rotation has three graded classes, each a disc solved once.  A matrix
# whose range is n-fold symmetric solves one 2 pi / n window of the grid:
# th2_symmetric's order-3 case takes 180 (540 on the whole grid), its
# order-2 case 182, each end of [0, pi/2] alone, and their symmetry probes
# one reduction per angle and block, 4 x 2 and 6 x 3
REDUCTIONS = {
    "t3_harmonic_range": 91,
    "c1_multiplication": 1,
    "th1_rotation_hull": 3,
    "th2_symmetric": 182 + 4 * 2 + 180 + 6 * 3,
    "pro1_rank_one": 182,
    "theo2_zero_interior": 4 * 15,
    "theo3_zero_interior": 14,
    "remark_counterexample": 182,
    "th_disc_TH1": 1,
    "th_disc_TH2": 2,
    "th_circle_3x3": 3,
    "th_ellipse_rotation": 181 + 29,
    "th_ellipse_irrational": 360 + 53,
}


def test_each_check_makes_its_pinned_reductions(monkeypatch):
    made, init = [], numrange._Tridiagonal.__init__
    monkeypatch.setattr(numrange._Tridiagonal, "__init__", lambda T, *args: made.append(1) or init(T, *args))
    counts = {}
    for check_id in EXPECTED_IDS:
        before = len(made)
        run_check(check_id)
        counts[check_id] = len(made) - before
    assert counts == {check_id: REDUCTIONS.get(check_id, 0) for check_id in EXPECTED_IDS}
    assert sum(counts.values()) == 1550


def test_two_fold_ranges_bisect_one_end_per_angle(monkeypatch):
    # t3's tridiagonal z + a conj(z) has a zero diagonal and offsets +-1, so
    # its range is symmetric under z -> -z: theta + pi copies theta, and the
    # real mirror leaves the 91 angles of [0, pi/2], each bisected for its
    # top end alone (181 bisections when theta + pi was solved too)
    bisections, eigenvalue = [], numrange._Tridiagonal.eigenvalue
    monkeypatch.setattr(numrange._Tridiagonal, "eigenvalue", lambda T, end: bisections.append(end) or eigenvalue(T, end))
    assert run_check("t3_harmonic_range").passed
    assert bisections == [0] * 91
