import itertools
import math
import re

import numpy as np
import pytest

from conftest import write_frame_csv
from predvote.dataset import (
    ColumnSchema,
    StudyFrame,
    _PORTFOLIO_EFFECTS,
    _PORTFOLIO_FACTORS,
    _PORTFOLIO_INTERCEPT,
    _PORTFOLIO_SIGMA,
    encode_columns,
    load_csv,
    portfolio_schema,
    synthesize_portfolio,
    write_portfolio_csv,
)
from predvote.errors import DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def data_error(path, message):
    """A match pattern for the whole DataError message that load_csv raises on path."""
    return f"^{re.escape(f'{path}: {message}')}$"


BASIC_SCHEMA = ColumnSchema(
    response="claim",
    covariates=(("gender", "categorical"),),
    sample_flag="insample",
)


class TestLoadCsv:
    def test_smallest_valid_frame(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_lines(
            path,
            [
                "claim,gender,insample",
                "10.0,f,1",
                "12.5,m,1",
                "9.0,f,1",
                ",m,0",
                ",f,0",
            ],
        )
        frame = load_csv(str(path), BASIC_SCHEMA)
        assert (frame.n, frame.k, frame.q) == (3, 2, 1)
        assert frame.column_names == ["gender=m"]  # "f" is the reference level
        assert np.array_equal(frame.y_sample, [10.0, 12.5, 9.0])
        assert np.array_equal(frame.x_sample[:, 0], [0.0, 1.0, 0.0])
        assert np.array_equal(frame.x_out[:, 0], [1.0, 0.0])

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", ",m,0"])
        schema = ColumnSchema(
            response="claim",
            covariates=(("age", "numeric"),),
            sample_flag="insample",
        )
        with pytest.raises(DataError, match="age"):
            load_csv(str(path), schema)

    def test_non_numeric_response_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "oops,m,1", ",f,0"])
        message = "line 3, column 'claim': cannot parse 'oops' as a number"
        with pytest.raises(DataError, match=data_error(path, message)):
            load_csv(str(path), BASIC_SCHEMA)

    def test_unseen_out_of_sample_level_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "2.0,m,1", ",x,0"])
        with pytest.raises(DataError, match="'x'"):
            load_csv(str(path), BASIC_SCHEMA)

    def test_out_of_sample_response_ignored_with_warning(self, tmp_path):
        path = tmp_path / "warn.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "2.0,m,1", "99.0,m,0"])
        with pytest.warns(UserWarning, match="ignoring response"):
            frame = load_csv(str(path), BASIC_SCHEMA)
        assert frame.n == 2 and 99.0 not in frame.y_sample

    def test_flag_must_be_binary(self, tmp_path):
        path = tmp_path / "flag.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,2", "2.0,m,1", ",m,0"])
        with pytest.raises(DataError, match="binary"):
            load_csv(str(path), BASIC_SCHEMA)

    def test_single_level_categorical_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "2.0,f,1", ",f,0"])
        with pytest.raises(DataError, match="at least 2 levels"):
            load_csv(str(path), BASIC_SCHEMA)

    def test_short_row_names_the_missing_cell(self, tmp_path):
        path = tmp_path / "short.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "2.0,m", ",f,0"])
        with pytest.raises(DataError, match=data_error(path, "line 3, column 'insample': missing cell")):
            load_csv(str(path), BASIC_SCHEMA)

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        write_lines(path, ["claim,gender,insample"])
        with pytest.raises(DataError, match=data_error(path, "no data rows")):
            load_csv(str(path), BASIC_SCHEMA)

    def test_empty_categorical_cell_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_lines(path, ["claim,gender,insample", "1.0,f,1", "2.0, ,1", ",m,0"])
        with pytest.raises(DataError, match=data_error(path, "line 3, column 'gender': empty categorical cell")):
            load_csv(str(path), BASIC_SCHEMA)

    def test_blank_lines_skipped_and_errors_name_the_file_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        write_lines(path, ["claim,gender,insample", "", "1.0,f,1", "", "", "2.0,m,1", ",f,0", ""])
        frame = load_csv(str(path), BASIC_SCHEMA)
        assert (frame.n, frame.k) == (2, 1)
        assert np.array_equal(frame.y_sample, [1.0, 2.0])
        write_lines(path, ["claim,gender,insample", "", "1.0,f,1", "", "oops,m,1", ",f,0"])
        message = "line 5, column 'claim': cannot parse 'oops' as a number"
        with pytest.raises(DataError, match=data_error(path, message)):
            load_csv(str(path), BASIC_SCHEMA)
        write_lines(path, ["claim,gender,insample", "", "10.0,f,1", "", "12.5", ",m,0"])
        with pytest.raises(DataError, match=data_error(path, "line 5, column 'insample': missing cell")):
            load_csv(str(path), BASIC_SCHEMA)

    @pytest.mark.parametrize(
        "lines",
        [
            ["claim,insample", "1.0,1", ",0"],
            ["claim,gender,insample,gender", "1.0,f,1,m", ",m,0,f"],
            ["claim,gender,insample", "1.0,f,1", "2.0,m", ",f,0"],
            ["claim,gender,insample", "1.0,f,1", "inf,m,1", ",f,0"],
            ["claim,gender,insample", "1.0,f,1", "2.0,m,yes", ",f,0"],
            ["claim,gender,insample", "1.0,f,0", "2.0,m,0"],
            ["claim,gender,insample", "1.0,f,1", "2.0,m,1", ",x,0"],
            ["claim,gender,insample", "1.0,f,1", "2.0,f,1", ",f,0"],
        ],
        ids=[
            "missing-column", "repeated-column", "short-row", "non-finite", "flag", "no-out", "unseen-level", "one-level",
        ],
    )
    def test_every_data_error_starts_with_the_path(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            load_csv(str(path), BASIC_SCHEMA)

    @pytest.mark.parametrize(
        "out_cell,sample_cell,message",
        [
            ("oops", "bad", "cannot parse 'oops' as a number"),
            ("inf", "nan", "non-finite value 'inf'"),
        ],
    )
    def test_first_bad_numeric_cell_named_in_file_order(self, tmp_path, out_cell, sample_cell, message):
        # the out-of-sample row's bad cell comes first in the file, above the sample row's
        path = tmp_path / "bad.csv"
        write_lines(path, ["claim,age,insample", "1.0,30,1", f",{out_cell},0", f"2.0,{sample_cell},1", ",40,0"])
        schema = ColumnSchema(response="claim", covariates=(("age", "numeric"),), sample_flag="insample")
        with pytest.raises(DataError, match=data_error(path, f"line 3, column 'age': {message}")):
            load_csv(str(path), schema)

    def test_interleaved_rows_encode_to_hand_computed_blocks(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        write_lines(
            path,
            [
                "claim,age,region,insample",
                "10.0,30,north,1",
                ",45,south,0",
                "12.5,52.5,south,true",
                ",61,north,0",
                "9.0,28,east,1",
                ",33,east,false",
            ],
        )
        schema = ColumnSchema(
            response="claim",
            covariates=(("age", "numeric"), ("region", "categorical")),
            sample_flag="insample",
        )
        frame = load_csv(str(path), schema)
        assert frame.column_names == ["age", "region=north", "region=south"]  # "east" is the reference level
        assert np.array_equal(frame.x_sample, [[30.0, 1.0, 0.0], [52.5, 0.0, 1.0], [28.0, 0.0, 0.0]])
        assert np.array_equal(frame.x_out, [[45.0, 0.0, 1.0], [61.0, 1.0, 0.0], [33.0, 0.0, 0.0]])
        assert np.array_equal(frame.y_sample, [10.0, 12.5, 9.0])
        assert frame.x_sample.flags.c_contiguous and frame.x_out.flags.c_contiguous

    def test_encode_columns_names_the_given_line(self):
        columns = {"claim": ["1.0", "2.0", ""], "gender": ["f", "m", "f"], "insample": ["1", "yes", "0"]}
        with pytest.raises(DataError, match=r"^line 7, column 'insample': sample flag must be binary"):
            encode_columns(columns, BASIC_SCHEMA, [2, 7, 9])

    def test_repeated_schema_column_in_header_named(self, tmp_path):
        # a dict reader would silently keep the last of the two gender columns
        path = tmp_path / "repeated.csv"
        write_lines(path, ["claim,gender,gender,insample", "1.0,f,m,1", "2.0,m,f,1", ",f,m,0"])
        with pytest.raises(DataError, match=r"column 'gender' is repeated in the header"):
            load_csv(str(path), BASIC_SCHEMA)

    def test_repeated_unread_column_is_allowed(self, tmp_path):
        path = tmp_path / "extra.csv"
        write_lines(path, ["note,claim,gender,note,insample", "a,1.0,f,b,1", "c,2.0,m,d,1", "e,,f,f,0"])
        assert load_csv(str(path), BASIC_SCHEMA).column_names == ["gender=m"]

    def test_portfolio_csv_reloads_to_the_synthetic_frame(self, tmp_path):
        path = tmp_path / "portfolio.csv"
        for n, k, seed in ((40, 8, 3), (500, 2000, 1)):
            write_portfolio_csv(str(path), n, k, seed)
            loaded, direct = load_csv(str(path), portfolio_schema()), synthesize_portfolio(n, k, seed)
            assert loaded.column_names == direct.column_names
            for name in ("x_sample", "y_sample", "x_out"):
                assert np.array_equal(getattr(loaded, name), getattr(direct, name)), name

    def test_byte_order_mark_loads_the_same_frame(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a BOM, which must not join the first header cell
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_portfolio_csv(str(plain), 40, 8, 3)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert plain.read_text(encoding="utf-8").startswith("claim_amount,")
        loaded, direct = load_csv(str(bom), portfolio_schema()), load_csv(str(plain), portfolio_schema())
        assert loaded.column_names == direct.column_names
        for name in ("x_sample", "y_sample", "x_out"):
            assert np.array_equal(getattr(loaded, name), getattr(direct, name)), name

    def test_portfolio_csv_encodes_to_seven_columns(self, tmp_path):
        # non-reference dummy levels: 1 + 2 + 1 + 1 + 2
        path = tmp_path / "portfolio.csv"
        write_portfolio_csv(str(path), 40, 8, 123)
        frame = load_csv(str(path), portfolio_schema())
        assert frame.q == 7
        expected = []
        for name, levels in _PORTFOLIO_FACTORS:
            expected.extend(f"{name}={lvl}" for lvl in sorted(levels)[1:])
        assert frame.column_names == expected

    def test_encoding_order_stable(self, tmp_path):
        path = tmp_path / "stable.csv"
        write_portfolio_csv(str(path), 30, 5, 9)
        first = load_csv(str(path), portfolio_schema())
        second = load_csv(str(path), portfolio_schema())
        assert first.column_names == second.column_names
        assert np.array_equal(first.x_sample, second.x_sample)
        assert np.array_equal(first.x_out, second.x_out)


class TestRoundTrip:
    def test_write_then_reload_is_exact(self, tmp_path):
        frame = synthesize_portfolio(25, 6, 42)
        path = tmp_path / "roundtrip.csv"
        reloaded = load_csv(str(path), write_frame_csv(frame, str(path)))
        assert np.array_equal(reloaded.x_sample, frame.x_sample)
        assert np.array_equal(reloaded.y_sample, frame.y_sample)
        assert np.array_equal(reloaded.x_out, frame.x_out)
        assert reloaded.column_names == frame.column_names

    def test_irrational_floats_roundtrip(self, tmp_path):
        frame = StudyFrame(
            x_sample=np.array([[math.pi], [math.e], [math.sqrt(2)]]),
            y_sample=np.array([1 / 3, 2 / 7, 1 / 9]),
            x_out=np.array([[1 / 11]]),
            column_names=["x"],
        )
        path = tmp_path / "floats.csv"
        reloaded = load_csv(str(path), write_frame_csv(frame, str(path)))
        assert np.array_equal(reloaded.x_sample, frame.x_sample)
        assert np.array_equal(reloaded.y_sample, frame.y_sample)


class TestSynthesizePortfolio:
    def test_deterministic_given_seed(self):
        a = synthesize_portfolio(100, 20, 7)
        b = synthesize_portfolio(100, 20, 7)
        assert np.array_equal(a.x_sample, b.x_sample)
        assert np.array_equal(a.y_sample, b.y_sample)
        assert np.array_equal(a.x_out, b.x_out)

    def test_different_seed_differs(self):
        a = synthesize_portfolio(100, 20, 7)
        b = synthesize_portfolio(100, 20, 8)
        assert not np.array_equal(a.y_sample, b.y_sample)

    def test_response_strictly_positive(self):
        frame = synthesize_portfolio(100, 20, 7)
        assert np.all(frame.y_sample > 0)

    def test_sample_mean_matches_enumeration_oracle(self):
        # independent oracle: exact E[Y], Var[Y] by enumerating all factor
        # combinations of the log-linear generator
        frame = synthesize_portfolio(10000, 1000, 1)
        level_sets = [
            [(name, lvl) for lvl in levels] for name, levels in _PORTFOLIO_FACTORS
        ]
        etas = [
            _PORTFOLIO_INTERCEPT + sum(_PORTFOLIO_EFFECTS.get(pair, 0.0) for pair in combo)
            for combo in itertools.product(*level_sets)
        ]
        etas = np.array(etas)
        s2 = _PORTFOLIO_SIGMA**2
        mean = float(np.mean(np.exp(etas)) * np.exp(s2 / 2))
        second = float(np.mean(np.exp(2 * etas)) * np.exp(2 * s2))
        sd = math.sqrt(second - mean**2)
        assert abs(frame.y_sample.mean() - mean) < 3 * sd / math.sqrt(frame.n)

    def test_preconditions(self):
        with pytest.raises(DataError):
            synthesize_portfolio(5, 10, 1)
        with pytest.raises(DataError):
            synthesize_portfolio(50, 0, 1)


class TestStudyFrame:
    def test_arrays_are_immutable(self):
        frame = synthesize_portfolio(20, 5, 0)
        with pytest.raises(ValueError):
            frame.y_sample[0] = 0.0
        with pytest.raises(ValueError):
            frame.x_sample[0, 0] = 0.0

    def test_non_finite_response_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            StudyFrame(
                x_sample=[[1.0], [2.0]],
                y_sample=[1.0, np.nan],
                x_out=[[3.0]],
                column_names=["x"],
            )

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            StudyFrame(
                x_sample=[[1.0], [2.0]],
                y_sample=[1.0, 2.0],
                x_out=[[3.0]],
                column_names=["a", "b"],
            )

    @pytest.mark.parametrize("width", [8, 6])
    def test_out_block_of_another_width_rejected(self, width):
        # reshaped to the sample's width, a 7 x 8 block would pass as eight rows made of the wrong cells
        with pytest.raises(DataError, match=f"^x_out has {width} columns, x_sample has 7$"):
            StudyFrame(
                x_sample=np.zeros((5, 7)),
                y_sample=np.ones(5),
                x_out=np.arange(7.0 * width).reshape(7, width),
                column_names=list("abcdefg"),
            )

    def test_schema_validation(self):
        with pytest.raises(DataError):
            ColumnSchema(response="y", covariates=(("y", "numeric"),), sample_flag="s")
        with pytest.raises(DataError):
            ColumnSchema(response="y", covariates=(("x", "weird"),), sample_flag="s")
        with pytest.raises(DataError):
            ColumnSchema(response="y", covariates=(("x", "numeric"), ("x", "numeric")), sample_flag="s")

    @pytest.mark.parametrize(
        "fields",
        [
            {"response": 5},
            {"sample_flag": None},
            {"covariates": ((5, "categorical"),)},
            {"covariates": (("x", 5),)},
        ],
        ids=["response", "sample_flag", "covariate-name", "covariate-kind"],
    )
    def test_schema_names_must_be_strings(self, fields):
        # str() once turned a covariate named 5 into the CSV column '5'
        schema = {"response": "y", "covariates": (("x", "numeric"),), "sample_flag": "s", **fields}
        with pytest.raises(DataError, match="schema names and kinds must be strings"):
            ColumnSchema(**schema)
