"""The one CSV layer: every reader skips blank records and names an unreadable file; the writers' bytes are pinned."""

import hashlib
import re

import numpy as np
import pytest

from conftest import write_frame_csv
from predvote import matrix_io
from predvote.cli import cmd_run, main
from predvote.dataset import ColumnSchema, load_csv, synthesize_portfolio, write_portfolio_csv
from predvote.errors import ConfigError, DataError
from predvote.matrix_io import read_matrix_csv, write_ecdf_csv, write_matrix_csv

# SHA-256 of each writer's file on the fixed inputs below, recorded before the writers shared write_rows
WRITTEN = {
    "portfolio.csv": (
        lambda path: write_portfolio_csv(path, 40, 12, 3),
        "bb1c78521cb9d3320081492a202d7e59561e60db06e39d71da1602ae4e52de48",
    ),
    "frame.csv": (
        lambda path: write_frame_csv(synthesize_portfolio(30, 8, 2), path),
        "1142a570779abddd3c0ffe4cab3feb6979dc2b100b0e001b3ce775ff6e4891c6",
    ),
    "matrix.csv": (
        lambda path: write_matrix_csv(
            path,
            np.array([[0.1, 1 / 3, 2.0], [1e-300, -0.0, 7.25]]),
            [("gen1_ols_normal", "total", "rmse"), 'plain "label"'],
            ["a", "b,c", "d"],
        ),
        "92a2753f4ed64a468cc7d7894f3d30b41dd451f9c0e759fc74f0ee77afadde61",
    ),
    "ecdf.csv": (
        lambda path: write_ecdf_csv(
            path,
            {
                "a": (np.array([0.0, 0.5, 1.0]), np.array([1 / 3, 2 / 3, 1.0])),
                "b,c": (np.array([0.25]), np.array([1.0])),
            },
        ),
        "d0e7505294f68e7fadf083e11d3313a463bbdf506ca80acf708b3a6b03f2e359",
    ),
}

SCHEMA = ColumnSchema(response="claim", covariates=(("gender", "categorical"),), sample_flag="insample")


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_writer_bytes_are_pinned(tmp_path, name):
    write, digest = WRITTEN[name]
    path = tmp_path / name
    write(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_vote_reads_a_matrix_with_blank_lines(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("voter,a,b\n\nr1,0.1,0.2\n\n\nr2,0.3,0.1\n\n", encoding="utf-8")
    entries, row_labels, col_labels = read_matrix_csv(str(matrix))
    assert np.array_equal(entries, [[0.1, 0.2], [0.3, 0.1]])
    assert (row_labels, col_labels) == (["r1", "r2"], ["a", "b"])
    assert main(["vote", str(matrix), "--out", str(tmp_path / "out")]) == 0


def test_byte_order_mark_stays_out_of_the_first_cell(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_bytes(b"\xef\xbb\xbfvoter,a,b\r\nr1,0.1,0.2\r\nr2,0.3,0.1\r\n")
    assert matrix_io.read_rows(str(matrix), "matrix file")[0] == ["voter", "a", "b"]
    entries, row_labels, col_labels = read_matrix_csv(str(matrix))
    assert np.array_equal(entries, [[0.1, 0.2], [0.3, 0.1]])
    assert (row_labels, col_labels) == (["r1", "r2"], ["a", "b"])


def test_blank_line_before_the_data_header_is_skipped(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("\n\nclaim,gender,insample\n10.0,f,1\n12.5,m,1\n,m,0\n", encoding="utf-8")
    frame = load_csv(str(data), SCHEMA)
    assert (frame.n, frame.k) == (2, 1)
    assert np.array_equal(frame.y_sample, [10.0, 12.5])


@pytest.mark.parametrize("body", [None, b"voter,a,b\nr\xe9,0.1,0.2\n"], ids=["missing", "latin-1"])
@pytest.mark.parametrize(
    "read, error, kind",
    [
        (read_matrix_csv, DataError, "matrix file"),
        (lambda path: load_csv(path, SCHEMA), DataError, "data file"),
        (lambda path: cmd_run(path, "data.csv", "out"), ConfigError, "configuration"),
    ],
    ids=["matrix", "data", "config"],
)
def test_missing_file_raises_data_error_naming_its_kind(tmp_path, read, error, kind, body):
    # a file that is not UTF-8 is named like a missing one; a configuration's error is a ConfigError
    path = tmp_path / "input"
    if body is not None:
        path.write_bytes(body)
    reason = "" if body is None else "not UTF-8 (invalid continuation byte)"
    with pytest.raises(error, match=f"^{re.escape(f'cannot read {kind} {path}: {reason}')}"):
        read(str(path))


_OOPS_IN_B = "column 'b': cannot parse 'oops' as a number"


@pytest.mark.parametrize(
    "body, line, cell",
    [
        ("voter,a,b\nr1,0.1,0.2\n\nr2,0.3,oops\n", 4, _OOPS_IN_B),
        ("\nvoter,a,b\n\n\nr1,0.1,0.2,9\n", 5, None),
        ("voter,a,b\n\nr1,0.1,0.2\n\nr2,0.3\n", 5, None),
        pytest.param("voter,a,b\n\nr1,0.1,0.2\nr2,0.3," + "1" * 200_000 + "\n", 4, None, id="field-past-csv-limit"),
        pytest.param('voter,a,b\n"r\n1",0.1,0.2\nr2,0.3,oops\n', 4, _OOPS_IN_B, id="multi-line-label"),
        pytest.param("voter,a,b\nr1,0.1,0.2\nr2,inf,0.1\n", 3, "column 'a': non-finite value 'inf'", id="inf"),
        pytest.param("voter,a,b\n\nr1,0.1,nan\nr2,oops,0.1\n", 3, "column 'b': non-finite value 'nan'", id="nan"),
        # the first bad cell in file order is named, whether it does not parse or parses to a non-finite value
        pytest.param("voter,a,b\nr1,0.1,0.2\nr2,oops,inf\n", 3, "column 'a': cannot parse 'oops' as a number", id="oops"),
    ],
)
def test_bad_matrix_cell_after_blank_lines_reports_its_file_line(tmp_path, body, line, cell):
    matrix = tmp_path / "m.csv"
    matrix.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=f", line {line}: ") as raised:
        read_matrix_csv(str(matrix))
    if cell is not None:
        assert str(raised.value) == f"{matrix}, line {line}: {cell}"


def test_plot_ecdf_reads_its_input_once(tmp_path, monkeypatch):
    calls = []

    def counted(path, what):
        calls.append(what)
        return read_rows(path, what)

    read_rows = matrix_io.read_rows
    monkeypatch.setattr(matrix_io, "read_rows", counted)
    path = tmp_path / "input.csv"
    path.write_text("voter,a,b\nr1,0.1,0.2\nr2,0.3,1.0\n", encoding="utf-8")
    assert main(["plot-ecdf", str(path), "--out", str(tmp_path / "plot.svg")]) == 0
    assert calls == ["matrix file"]


def test_matrix_reader_refuses_an_ecdf_step_file(tmp_path):
    # a step file parses as a 2-column matrix whose strategies would be 'x' and 'cdf'
    steps = tmp_path / "ecdf.csv"
    write_ecdf_csv(str(steps), {"a": (np.array([0.5, 1.0]), np.array([0.5, 1.0]))})
    with pytest.raises(DataError, match=f"^{re.escape(f'{steps}: an ECDF step file (strategy,x,cdf)')}"):
        read_matrix_csv(str(steps))


def test_matrix_reader_refuses_an_empty_column_label_naming_its_column(tmp_path):
    # each column is one strategy, known by its name; an empty label would be elected as ''
    matrix = tmp_path / "m.csv"
    matrix.write_text("voter,a,,b\nr1,0.1,0.2,0.3\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(f'{matrix}: column 3 has an empty label')}"):
        read_matrix_csv(str(matrix))
