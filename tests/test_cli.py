"""End-to-end tests of the command line front end.

Commands run in-process through cli.main so exit codes and stdout can be
asserted directly; one subprocess test covers the module entry point.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from bergrange import cli
from bergrange.checks import list_checks

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
    expected = cli.rows_to_csv(cli.sweep_rows(op.matrix, 64))
    assert points_path.read_text() == expected


def test_banded_toeplitz_range_from_csv_is_byte_identical(tmp_path):
    # five diagonals: the sweep takes the banded solver, so both sources must reach it
    terms = [[1, 0, 0.5, 0.1], [0, 1, 0.25, 0.0], [2, 0, 0.1, 0.0], [0, 2, 0.0, 0.2], [1, 1, 0.3, 0.0]]
    config = {"alpha": 0.5, "truncation": 80, "angles": 64, "operator": {"toeplitz": {"terms": terms}}}
    config_path, matrix_path = tmp_path / "toeplitz.json", tmp_path / "matrix.csv"
    config_path.write_text(json.dumps(config))
    assert cli.main(["build", "--config", str(config_path), "--out", str(matrix_path)]) == 0
    outputs = []
    for source in (["--config", str(config_path)], ["--matrix", str(matrix_path)]):
        out = tmp_path / f"points{len(outputs)}.csv"
        assert cli.main(["range", *source, "--angles", "64", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_matrix_csv_round_trip(config_path):
    config = cli.parse_config(config_path.read_text())
    op = cli.build_operator(config)
    parsed = cli.matrix_from_csv(cli.matrix_to_csv(op))
    assert np.array_equal(parsed, op.matrix)


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
    assert (
        cli.main(["range", "--config", str(config_path), "--out", str(points_path)]) == 0
    )
    assert cli.main(["plot", "--points", str(points_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")


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
