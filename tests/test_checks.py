"""Tests for the named check registry.

The full suite is run once per session through a module-scoped fixture;
individual tests then interrogate the reports.  Expected metric values
asserted here are re-derived inline (norm recurrences, Gamma ratios)
rather than read back from the library.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import gammaln

from bergrange.checks import accepted_overrides, list_checks, run_all, run_check
from bergrange.core import UsageError

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


def test_run_all_applies_overrides_only_where_accepted():
    report = run_check("theo3_zero_interior", {"N": 24})
    assert report.params["N"] == 24
    assert report.passed


def test_accepted_overrides_keep_each_checks_own_parameters():
    overrides = {"alpha": 0.5, "N": 24, "seed": 3}
    assert accepted_overrides("t1_spectrum", overrides) == overrides
    assert accepted_overrides("zsq_diagonal", overrides) == {"N": 24, "seed": 3}
    assert accepted_overrides("mobius_mean_value", overrides) == {"seed": 3}
    # an unknown id keeps only "seed" and is left for run_check to reject
    assert accepted_overrides("no_such_check", overrides) == {"seed": 3}
    with pytest.raises(UsageError, match="unknown check id"):
        run_check("no_such_check", accepted_overrides("no_such_check", overrides))
