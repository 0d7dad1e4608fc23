"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json

import numpy as np
import pytest

import run
import tracing
import workloads
from bergrange import cli, operators
from bergrange.numrange import boundary_points


@pytest.mark.parametrize("make", [workloads.range_configs, workloads.build_configs])
def test_generator_is_deterministic_for_a_seed(make):
    assert json.dumps(make(7, 0)) == json.dumps(make(7, 0))
    assert json.dumps(make(7, 0)) != json.dumps(make(8, 0))
    assert json.dumps(make(7, 0)) != json.dumps(make(7, 1))


def test_pass_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        assert [c["truncation"] for c in workloads.range_configs(seed, 0)] == list(workloads.RANGE_SIZES)
        assert sorted({c["truncation"] for c in workloads.build_configs(seed, 0)}) == list(workloads.BUILD_SIZES)


def test_self_maps_are_dense_and_inside_the_disk():
    rng = np.random.default_rng(0)
    for degree in (2, 3):
        for _ in range(50):
            phi = workloads.random_self_map(rng, degree)
            assert phi.size == degree + 1
            assert np.sum(np.abs(phi)) < 1.0
            assert np.all(np.abs(phi) > 0)


def _sweep(n_angles=24):
    spec = workloads.range_configs(3, 0)[0]["operator"]
    matrix = cli.operator_from_spec(spec, 0.5, 12).matrix
    rows = [(th, p.real, p.imag, h) for th, p, h in boundary_points(matrix, n_angles)]
    return matrix, rows


def test_range_check_accepts_a_true_sweep():
    matrix, rows = _sweep()
    assert workloads.check_range_rows(rows, matrix, 24, [0, 5, 17]) == []


def test_range_check_rejects_a_perturbed_support_row():
    matrix, rows = _sweep()
    theta, re, im, h = rows[5]
    rows[5] = (theta, re, im, h * (1 + 1e-7))
    problems = workloads.check_range_rows(rows, matrix, 24, [5])
    assert len(problems) == 2 and all(p.startswith("row 5:") for p in problems)


def test_range_output_parses_back_in_both_formats():
    _, rows = _sweep()
    for emit, fmt in ((cli.rows_to_csv, "csv"), (cli.rows_to_json, "json")):
        assert workloads.parse_rows(emit(rows), fmt) == [tuple(map(float, r)) for r in rows]


def _matrix_csv():
    op = cli.operator_from_spec(workloads.build_configs(4, 0)[1]["operator"], 2.0, 6)
    return op, cli.matrix_to_csv(op)


def _check_csv(text, op):
    parsed = cli.matrix_from_csv(text)
    reemitted = cli.matrix_to_csv(operators.OperatorTruncation(parsed, op.alpha))
    return workloads.check_matrix_csv(text, parsed, op.matrix, reemitted)


def test_matrix_check_accepts_the_written_csv():
    op, text = _matrix_csv()
    assert _check_csv(text, op) == []


def test_matrix_check_rejects_a_swapped_cell():
    op, text = _matrix_csv()
    lines = text.splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    cells[0], cells[2] = cells[2], cells[0]
    lines[2] = ",".join(cells) + "\n"
    assert _check_csv("".join(lines), op) == ["parsed matrix differs from the in-process build"]


def _span(sid, parent, name, start, end, job=0, attrs=None):
    return tracing.Span(job, sid, parent, name, start, end, attrs)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(2, 1, "core.alpha_weight", 20, 30),
        _span(1, 0, "operators.build_toeplitz", 10, 40, attrs={"n": 4}),
        _span(3, 0, "cli.matrix_to_csv", 50, 90, attrs={"bytes": 7}),
        _span(0, None, "bench.job", 0, 100),
    ]
    assert tracing.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}
    m = tracing.layer_metrics(spans, 1, [], 0, 0)
    assert m["bench.self_s"] == 30e-9
    assert m["operators.self_s"] == 20e-9
    assert m["core.self_s"] == 10e-9
    assert m["cli.self_s"] == 40e-9
    assert m["operators.build.bytes"] == 16 * 4**2
    assert m["operators.build.s"] == 30e-9
    assert tracing.self_sum_error(spans, {0: 100e-9}) == pytest.approx(0.0)
    assert tracing.self_sum_error(spans, {0: 125e-9}) == pytest.approx(0.2)


def test_install_rebinds_names_imported_by_other_modules():
    import bergrange
    import bergrange.checks
    import bergrange.numrange

    modules = [bergrange, *(getattr(bergrange, layer) for layer in tracing.LAYERS)]
    saved = [(mod, dict(vars(mod))) for mod in modules]
    original = bergrange.numrange.support_function
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = bergrange.numrange.support_function
        assert wrapped.__wrapped__ is original
        assert bergrange.checks.support_function is wrapped
        assert bergrange.support_function is wrapped
        handle = tracer.begin_job(0)
        bergrange.checks.run_check("c2_polygon")
        tracer.end_job(handle)
    finally:
        for mod, namespace in saved:
            vars(mod).update(namespace)
    assert bergrange.checks.support_function is original
    names = {s.name for s in tracer.spans}
    assert {"bench.job", "checks.run_check", "numrange.numerical_range_hull", "numrange.convex_hull"} <= names
    hull = [s for s in tracer.spans if s.name == "numrange.convex_hull"]
    assert all(s.attrs["vertices_out"] <= s.attrs["points_in"] for s in hull)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(12)))[0] == "max"
    assert run.tail(list(range(20)))[0] == "p50"
    assert run.tail(list(range(42)))[0] == "p75"
    assert run.tail(list(range(100)))[0] == "p90"
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
