"""End-to-end tests of the command line front end.

Commands run in-process through cli.main so exit codes and stdout can be
asserted directly; one subprocess test covers the module entry point.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bergrange import cli
from bergrange.checks import list_checks
from bergrange.numrange import boundary_points
from bergrange.operators import OperatorTruncation

CONFIG = {
    "alpha": 0.0,
    "truncation": 48,
    "angles": 64,
    "seed": 11,
    "operator": {
        "sum": [
            {"toeplitz": {"terms": [[1, 0, 0.5, 0.0], [0, 1, 0.25, 0.1]]}},
            {
                "weighted_composition": {
                    "psi": [[1.0, 0.0], [0.25, 0.0]],
                    "phi": [[0.0, 0.0], [0.5, 0.0]],
                }
            },
        ]
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_build_then_range_matches_in_process(tmp_path, config_path):
    matrix_path = tmp_path / "matrix.csv"
    points_path = tmp_path / "points.csv"
    assert cli.main(["build", "--config", str(config_path), "--out", str(matrix_path)]) == 0
    assert (
        cli.main(
            [
                "range",
                "--matrix",
                str(matrix_path),
                "--angles",
                "64",
                "--out",
                str(points_path),
            ]
        )
        == 0
    )
    config = cli.parse_config(config_path.read_text())
    op = cli.build_operator(config)
    expected = cli.rows_to_csv([(theta, pt.real, pt.imag, support) for theta, pt, support in boundary_points(op.matrix, 64)])
    assert points_path.read_text() == expected


@pytest.mark.parametrize("flag, value", [("--truncation", "99"), ("--alpha", "0.5")])
def test_range_of_a_matrix_rejects_config_overrides(tmp_path, config_path, capsys, flag, value):
    # a matrix file is swept as it is; only --angles applies to it
    matrix_path = tmp_path / "matrix.csv"
    assert cli.main(["build", "--config", str(config_path), "--out", str(matrix_path)]) == 0
    assert cli.main(["range", "--matrix", str(matrix_path), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha and --truncation apply to --config only" in captured.err


def _range_from_config_and_csv(tmp_path, operator):
    """``range`` output from the config and from its built CSV, as bytes."""
    config = {"alpha": 0.5, "truncation": 80, "angles": 64, "operator": operator}
    config_path, matrix_path = tmp_path / "job.json", tmp_path / "matrix.csv"
    config_path.write_text(json.dumps(config))
    assert cli.main(["build", "--config", str(config_path), "--out", str(matrix_path)]) == 0
    outputs = []
    for source in (["--config", str(config_path)], ["--matrix", str(matrix_path)]):
        out = tmp_path / f"points{len(outputs)}.csv"
        assert cli.main(["range", *source, "--angles", "64", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return outputs


def test_banded_toeplitz_range_from_csv_is_byte_identical(tmp_path):
    # five diagonals: the sweep takes the banded solver, so both sources must reach it
    terms = [[1, 0, 0.5, 0.1], [0, 1, 0.25, 0.0], [2, 0, 0.1, 0.0], [0, 2, 0.0, 0.2], [1, 1, 0.3, 0.0]]
    config_range, csv_range = _range_from_config_and_csv(tmp_path, {"toeplitz": {"terms": terms}})
    assert config_range == csv_range


def test_low_rank_composition_range_from_csv_is_byte_identical(tmp_path):
    # phi(0) != 0: dense and numerically low rank, so both sources must take the reduced solver
    phi = [[0.2, 0.1], [0.3, 0.0], [0.0, 0.2]]
    operator = {"weighted_composition": {"psi": [[1.0, 0.0], [0.5, -0.25]], "phi": phi}}
    config_range, csv_range = _range_from_config_and_csv(tmp_path, operator)
    assert config_range == csv_range


def test_matrix_csv_round_trip(config_path):
    config = cli.parse_config(config_path.read_text())
    op = cli.build_operator(config)
    parsed = cli.matrix_from_csv(cli.matrix_to_csv(op))
    assert np.array_equal(parsed, op.matrix)


COMPOSITION = {"weighted_composition": {"psi": [[1.0, 0.0], [0.5, -0.25]], "phi": [[0.2, 0.1], [0.3, 0.0], [0.0, 0.2]]}}
# five diagonals of a bi-polynomial symbol: most entries are 0.0
TOEPLITZ = {"toeplitz": {"terms": [[1, 0, 0.5, 0.1], [0, 1, 0.25, 0.0], [2, 0, 0.1, 0.0], [0, 2, 0.0, 0.2], [1, 1, 0.3, 0.0]]}}
# a signed zero, the least subnormal, the least normal, the largest double and a few that repr spells differently
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 1e16, 0.1]


def _build(operator, n):
    return cli.build_operator({"alpha": 0.5, "truncation": n, "operator": operator})


def _edge_matrix(n):
    """An n x n truncation whose entries cycle through EDGE_VALUES, each with both signs."""
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    parts = values[np.arange(2 * n * n) % values.size].reshape(n, 2 * n)
    return OperatorTruncation(parts.view(complex), 0.0)


# each is above the floors of three processes, when formatting and when parsing
LARGE = {
    "composition": lambda: _build(COMPOSITION, 360),
    "toeplitz": lambda: _build(TOEPLITZ, 720),
    "edge values": lambda: _edge_matrix(420),
}


@pytest.fixture
def cpus(request, monkeypatch):
    """The CPU count that cli sees: 1 takes the serial path, more start CPUs - 1 children."""
    monkeypatch.setattr(cli, "_cpu_count", lambda: request.param)
    return request.param


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name", LARGE)
def test_large_matrix_csv_keeps_its_bytes_and_bits_on_every_path(monkeypatch, cpus, name):
    op = LARGE[name]()
    started = []
    children = cli._children

    def spy(mode, ncols, shares):
        started.append((mode, len(shares)))
        return children(mode, ncols, shares)

    monkeypatch.setattr(cli, "_children", spy)
    text = cli.matrix_to_csv(op)
    rows = [",".join(map(repr, row.tolist())) for row in op.matrix.view(float)]
    assert text == "\n".join([f"# bergrange matrix truncation={op.truncation} alpha={op.alpha!r}", *rows, ""])
    parsed = cli.matrix_from_csv(text)
    assert parsed.dtype == complex and np.array_equal(parsed.view(np.uint64), op.matrix.view(np.uint64))
    # the parallel path ran, with one child per extra CPU, rather than falling back
    assert started == ([] if cpus == 1 else [("format", cpus - 1), ("parse", cpus - 1)])
    if cpus > 1:
        assert cli._format_in_parallel(op.matrix.view(float)) is not None
        assert cli._parse_in_parallel(text) is not None
    _no_child_left()


def test_matrix_csv_makes_no_third_copy_of_its_text(monkeypatch):
    # the line list and the joined text are each about len(text); a text
    # that gained its final newline after the join would be a third copy.
    # phi(0) != 0 fills every column, so each line is long; each size is
    # formatted serially (one CPU) and by this process and one child
    for n in (300, 360):
        op = _build(COMPOSITION, n)
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpu_count", lambda count=cpus: count)
            tracemalloc.start()
            try:
                text = cli.matrix_to_csv(op)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert text.endswith("\n") and peak <= 2.3 * len(text)


def _large_csv_lines():
    return cli.matrix_to_csv(_build(COMPOSITION, 360)).split("\n")


def _usage_error(text):
    with pytest.raises(cli.UsageError) as exc:
        cli.matrix_from_csv(text)
    return str(exc.value)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda lines: lines[-2].replace(",", ",x,0,", 1), "matrix line 361 is not numeric: could not convert string to float: 'x'"),
        (lambda lines: lines[-2].rsplit(",", 1)[0], "matrix line 361 has an odd number of fields"),
        (lambda lines: lines[-2].replace(",", ",1e400,0,", 1), "matrix line 361 is not finite: 1e400"),
        (lambda lines: None, "matrix file is not square: 359 rows, widths [360]"),
    ],
    ids=["non-numeric", "odd", "non-finite", "non-square"],
)
def test_a_fault_in_a_childs_share_raises_the_serial_error(monkeypatch, fault, message):
    # the second of two processes parses the last rows
    lines = _large_csv_lines()
    lines[-2] = fault(lines)
    text = "\n".join(line for line in lines if line is not None)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    assert _usage_error(text) == message
    _no_child_left()
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    assert _usage_error(text) == message


def test_comments_and_blank_lines_in_a_childs_share_still_parse(monkeypatch):
    lines = _large_csv_lines()
    lines[300:300] = ["", "# a comment", "   ", "\t# indented"]
    text = "\r\n".join(lines)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    parsed = cli._parse_in_parallel(text)
    _no_child_left()
    assert parsed is not None
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    assert np.array_equal(parsed.view(np.uint64), cli.matrix_from_csv(text).view(np.uint64))


def test_range_json_records_seed(tmp_path, config_path, capsys):
    assert cli.main(["range", "--config", str(config_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 11
    assert len(payload["points"]) == 64
    first = payload["points"][0]
    assert set(first) == {"theta", "re", "im", "support"}


def test_range_svg(tmp_path, config_path):
    out = tmp_path / "range.svg"
    assert (
        cli.main(["range", "--config", str(config_path), "--format", "svg", "--out", str(out)])
        == 0
    )
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polygon" in text
    assert "<script" not in text


def test_plot_from_points_file(tmp_path, config_path):
    points_path = tmp_path / "points.csv"
    svg_path = tmp_path / "fig.svg"
    direct_path = tmp_path / "direct.svg"
    assert (
        cli.main(["range", "--config", str(config_path), "--out", str(points_path)]) == 0
    )
    assert cli.main(["plot", "--points", str(points_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")
    # plotting the range CSV draws what range --format svg draws
    argv = ["range", "--config", str(config_path), "--format", "svg", "--out", str(direct_path)]
    assert cli.main(argv) == 0
    assert svg_path.read_bytes() == direct_path.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_rejects_non_finite_points(tmp_path, capsys, value):
    points_path = tmp_path / "points.csv"
    points_path.write_text(f"# theta,re,im,support\n0,1,0,1\n2,{value},0,1\n4,0,1,1\n")
    assert cli.main(["plot", "--points", str(points_path), "--out", str(tmp_path / "fig.svg")]) == 2
    assert capsys.readouterr().err == f"error: points line 3 is not finite: 2,{value},0,1\n"
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("argv", [["plot"], ["plot", "--config", "job.json"]])
def test_plot_takes_only_a_points_file(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


def test_check_single_pass(capsys):
    assert cli.main(["check", "theo3_zero_interior"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["id"] == "theo3_zero_interior"
    assert payload["pass"] is True
    assert payload["metrics"]["margin"] > 0


def test_check_seed_recorded(capsys):
    assert cli.main(["check", "l11_bounded", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["seed"] == 5


def test_check_failure_exit_code(capsys):
    # a 4x4 truncation cannot cover 97 percent of the symbol interval
    assert cli.main(["check", "t1_spectrum", "--truncation", "4"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False


@pytest.mark.parametrize(
    "argv, field",
    [(["theo2_zero_interior", "--truncation", "64"], "N"), (["mobius_mean_value", "--alpha", "0.5"], "alpha")],
)
def test_check_rejects_an_override_the_check_does_not_take(capsys, argv, field):
    # a single check reads its overrides as its own fields; "all" filters them per check
    assert cli.main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field {field!r} in {argv[0]}" in captured.err


def test_check_unknown_id(capsys):
    assert cli.main(["check", "not_a_check"]) == 2
    err = capsys.readouterr().err
    assert "unknown check id" in err
    assert "zsq_diagonal" in err


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["build", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_field(tmp_path, capsys):
    bad = dict(CONFIG)
    bad["truncatoin"] = 32
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["build", "--config", str(path)]) == 2
    assert "truncatoin" in capsys.readouterr().err


def test_unknown_operator_field(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG))
    bad["operator"] = {"toeplitz": {"terms": [[1, 0, 0.5, 0.0]], "extra": 1}}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["build", "--config", str(path)]) == 2
    assert "extra" in capsys.readouterr().err


TERM = {"toeplitz": {"terms": [[1, 0, 0.5, 0.0]]}}


@pytest.mark.parametrize(
    "operator, message",
    [
        (
            {"sum": [TERM, {"toeplitz": {"terms": [[1, 0, 0.5, 0.0], [0, 1, 0.2, "x"]]}}]},
            "operator.sum[1].toeplitz.terms[1][3] must be a number, got 'x'",
        ),
        ({"sum": [TERM, 3]}, "operator.sum[1] must be an object"),
        (
            {"sum": [{"weighted_composition": {"psi": [[1.0, 0.0]]}}]},
            "missing field 'phi' in operator.sum[0].weighted_composition",
        ),
        ({"sum": [TERM, {"toeplitz": []}]}, "operator.sum[1].toeplitz must be an object"),
        (
            {"toeplitz": {"terms": [[1, True, 0.5, 0.0]]}},
            "operator.toeplitz.terms[0][1] must be an integer, got True",
        ),
        (
            {"weighted_composition": {"psi": [[1, 0]], "phi": [[0, 0, 0]]}},
            "operator.weighted_composition.phi[0] must be a [re, im] pair, got [0, 0, 0]",
        ),
        ({"sum": []}, "operator.sum must be a non-empty list of operator objects"),
        (
            {},
            "operator must contain exactly one of ['sum', 'toeplitz', 'weighted_composition'], got []",
        ),
    ],
)
def test_operator_spec_error_text(tmp_path, capsys, operator, message):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({**CONFIG, "operator": operator}))
    assert cli.main(["build", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_range_rejects_a_non_finite_matrix_entry_at_its_line(tmp_path, capsys, value):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text(f"# bergrange matrix truncation=2 alpha=0.0\n1,0,0,0\n0,0,{value},-1\n")
    assert cli.main(["range", "--matrix", str(matrix_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: matrix line 3 is not finite: {value}\n"
    assert not (tmp_path / "r.csv").exists()


def test_json_output_refuses_nan():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.rows_to_json([(0.0, float("nan"), 0.0, 0.0)])


def test_large_alpha_build_round_trips(tmp_path):
    # at alpha = 400 the norm ratio r_n overflows float64 from n = 682 on
    config = {"alpha": 400.0, "truncation": 700, "operator": {"toeplitz": {"terms": [[1, 1, 1.0, 0.0]]}}}
    config_path = tmp_path / "zsq.json"
    config_path.write_text(json.dumps(config))
    matrix_path = tmp_path / "zsq.csv"
    assert cli.main(["build", "--config", str(config_path), "--out", str(matrix_path)]) == 0
    assert "nan" not in matrix_path.read_text()
    assert cli.main(["range", "--matrix", str(matrix_path), "--angles", "8", "--out", str(tmp_path / "r.csv")]) == 0


def test_small_truncation_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG))
    bad["truncation"] = 1
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["build", "--config", str(path)]) == 2
    assert "truncation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, override, message",
    [
        ("--config", ["--truncation", "1"], "--truncation must be >= 2, got 1"),
        ("--matrix", ["--angles", "5"], "--angles must be >= 8, got 5"),
    ],
)
def test_override_error_text(tmp_path, config_path, capsys, source, override, message):
    path = config_path
    if source == "--matrix":
        path = tmp_path / "matrix.csv"
        assert cli.main(["build", "--config", str(config_path), "--out", str(path)]) == 0
    assert cli.main(["range", source, str(path), *override]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_range_needs_exactly_one_source(config_path, capsys):
    assert cli.main(["range"]) == 2
    assert cli.main(["range", "--config", str(config_path), "--matrix", "x.csv"]) == 2


def test_list_checks(capsys):
    assert cli.main(["list-checks"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [line.split("\t")[0] for line in lines]
    assert ids == [cid for cid, _, _ in list_checks()]
    assert len(lines) == 21
    for line in lines:
        check_id, claim, defaults = line.split("\t")
        assert claim
        json.loads(defaults)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bergrange.cli", "list-checks"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "adjoint_kernel" in proc.stdout


@pytest.mark.parametrize(
    "field, value, override, message",
    [
        ("truncation", 1, ["--truncation", "1"], "must be >= 2, got 1"),
        ("angles", 7, ["--angles", "7"], "must be >= 8, got 7"),
        ("seed", -1, None, "must be >= 0, got -1"),
    ],
)
def test_config_field_and_its_override_share_one_rule(tmp_path, config_path, capsys, field, value, override, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CONFIG, field: value}))
    assert cli.main(["range", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {field} {message}\n"
    if override:
        assert cli.main(["range", "--config", str(config_path), *override]) == 2
        assert capsys.readouterr().err == f"error: {override[0]} {message}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {k: v for k, v in CONFIG.items() if k != "alpha"},
            "missing field 'alpha' in config",
        ),
        (
            {**CONFIG, "truncatoin": 32},
            "unknown field 'truncatoin' in config; allowed: ['alpha', 'angles', 'operator', 'seed', 'truncation']",
        ),
        (
            {**CONFIG, "operator": {"toeplitz": {"terms": [[1, 0, 0.5, 0.0]], "extra": 1}}},
            "unknown field 'extra' in operator.toeplitz; allowed: ['terms']",
        ),
        (
            {**CONFIG, "operator": {"shift": {}}},
            "unknown field 'shift' in operator; allowed: ['sum', 'toeplitz', 'weighted_composition']",
        ),
        ({**CONFIG, "operator": [TERM]}, "operator must be an object"),
    ],
)
def test_config_field_error_text(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["build", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tenth_of_a_turn_rotation_builds(tmp_path, capsys):
    phi = [[0.0, 0.0], [0.8090169943749475, 0.5877852522924731]]
    config = {"alpha": 0.0, "truncation": 8, "operator": {"weighted_composition": {"psi": [[1.0, 0.0]], "phi": phi}}}
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(config))
    assert cli.main(["build", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("# bergrange matrix truncation=8")
