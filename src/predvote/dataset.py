"""Tabular data loading and encoding into fixed design matrices.

A study frame splits the units of interest into an observed sample block
(covariates plus response) and an out-of-sample block (covariates only).
Categorical covariates are dummy-coded against the alphabetically first
level so that parametric design matrices stay full rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .matrix_io import parse_number, read_rows, write_rows

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_TRUE_TOKENS = {"1", "true"}
_FALSE_TOKENS = {"0", "false"}


@dataclass(frozen=True)
class ColumnSchema:
    """Describes how CSV columns map onto response, covariates and the sample flag.

    covariates is an ordered sequence of (name, kind) pairs with kind either
    "numeric" or "categorical".
    """

    response: str
    covariates: tuple[tuple[str, str], ...]
    sample_flag: str

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple((n, k) for n, k in self.covariates))
        for value in (self.response, self.sample_flag, *(v for pair in self.covariates for v in pair)):
            if not isinstance(value, str):
                raise DataError(f"schema names and kinds must be strings, got {value!r}")
        names = [n for n, _ in self.covariates]
        if len(set(names)) != len(names):
            raise DataError("duplicate covariate names in schema")
        for n, k in self.covariates:
            if k not in (NUMERIC, CATEGORICAL):
                raise DataError(f"covariate {n!r}: unknown kind {k!r}")
        reserved = {self.response, self.sample_flag}
        if len(reserved) != 2 or reserved & set(names):
            raise DataError("response, sample_flag and covariate names must be distinct")


@dataclass
class StudyFrame:
    """Fixed design matrices for sample and out-of-sample units.

    x_sample is n x q, x_out is k x q with identical column order; y_sample
    holds the observed responses for the sample block. Arrays are frozen
    after construction and safe to share across threads.
    """

    x_sample: np.ndarray
    y_sample: np.ndarray
    x_out: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        # private copies: a view would let the caller's arrays change the frozen frame
        self.x_sample = np.array(self.x_sample, dtype=np.float64, ndmin=2)
        self.x_out = np.array(self.x_out, dtype=np.float64, ndmin=2)
        self.y_sample = np.array(self.y_sample, dtype=np.float64).ravel()
        if self.x_sample.shape[0] < 1:
            raise DataError("sample block must contain at least one row")
        if self.x_out.shape[1:] != self.x_sample.shape[1:]:
            raise DataError(f"x_out has {self.x_out.shape[1]} columns, x_sample has {self.x_sample.shape[1]}")
        if self.x_sample.shape[0] != self.y_sample.shape[0]:
            raise DataError("x_sample and y_sample row counts differ")
        if self.x_sample.shape[1] != len(self.column_names):
            raise DataError("column_names length does not match design width")
        if not np.all(np.isfinite(self.x_sample)) or not np.all(np.isfinite(self.x_out)):
            raise DataError("design matrices contain non-finite values")
        if not np.all(np.isfinite(self.y_sample)):
            raise DataError("y_sample contains non-finite values")
        for a in (self.x_sample, self.x_out, self.y_sample):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x_sample.shape[0]

    @property
    def k(self) -> int:
        # k = 0 frames are permitted structurally (prediction on the sample
        # alone); the loaders below require at least one out-of-sample row.
        return self.x_out.shape[0]

    @property
    def q(self) -> int:
        return self.x_sample.shape[1]

    @property
    def x_full(self) -> np.ndarray:
        """All n + k design rows, sample block first."""
        return np.vstack([self.x_sample, self.x_out])


def _parse_flag(token: str, column: str, line: int) -> bool:
    t = token.strip().lower()
    if t in _TRUE_TOKENS:
        return True
    if t in _FALSE_TOKENS:
        return False
    raise DataError(f"line {line}, column {column!r}: sample flag must be binary (0/1/true/false), got {token!r}")


def _parse_number(token: str, column: str, line: int) -> float:
    try:
        return parse_number(token, column)
    except ValueError as exc:
        raise DataError(f"line {line}, {exc}") from None


def encode_columns(columns: dict[str, list[str]], schema: ColumnSchema, lines: list[int]) -> StudyFrame:
    """Encode raw string columns, one equal-length list per schema column, into a StudyFrame.

    Each covariate is encoded over all rows in file order, so a column's bad
    cell named is its first in the file; the schema's flag column then splits
    the design into its sample and out-of-sample blocks. Categorical covariates
    are dummy-coded with the alphabetically first sample-observed level
    dropped; a level appearing only in the out-of-sample block is an error.
    Response cells on out-of-sample rows are ignored with a warning.
    lines holds each row's file line, which error messages name.
    """
    flags = [_parse_flag(token, schema.sample_flag, line) for token, line in zip(columns[schema.sample_flag], lines)]
    if not flags:
        raise DataError("no data rows")
    if not any(flags):
        raise DataError("no rows flagged as in-sample")
    if all(flags):
        raise DataError("no rows flagged as out-of-sample")

    responses = columns[schema.response]
    y = np.array([_parse_number(cell, schema.response, line) for cell, line, f in zip(responses, lines, flags) if f])
    ignored = sum(1 for cell, f in zip(responses, flags) if not f and cell.strip())
    if ignored:
        warnings.warn(f"ignoring response values on {ignored} out-of-sample row(s)", stacklevel=2)

    # One encoded column over all rows per numeric covariate and per
    # non-reference level, schema order; the sample block fixes the levels.
    names: list[str] = []
    encoded: list[np.ndarray] = []
    for cov_name, kind in schema.covariates:
        cells = columns[cov_name]
        if kind == NUMERIC:
            names.append(cov_name)
            encoded.append(np.array([_parse_number(cell, cov_name, line) for cell, line in zip(cells, lines)]))
            continue
        empty = next((line for cell, line in zip(cells, lines) if not cell.strip()), None)
        if empty is not None:
            raise DataError(f"line {empty}, column {cov_name!r}: empty categorical cell")
        values = [cell.strip() for cell in cells]
        levels = sorted({v for v, f in zip(values, flags) if f})
        if len(levels) < 2:
            raise DataError(f"column {cov_name!r}: needs at least 2 levels in the sample block, found {levels}")
        unseen = sorted(set(values).difference(levels))
        if unseen:
            raise DataError(f"column {cov_name!r}: level {unseen[0]!r} appears out-of-sample but never in the sample")
        for level in levels[1:]:  # reference level = levels[0]
            names.append(f"{cov_name}={level}")
            encoded.append(np.array([v == level for v in values], dtype=np.float64))

    if not names:
        raise DataError("schema declares no covariates")
    x, sample = np.column_stack(encoded), np.array(flags)
    return StudyFrame(x_sample=x[sample], y_sample=y, x_out=x[~sample], column_names=names)


def load_csv(path: str, schema: ColumnSchema) -> StudyFrame:
    """Load a headered CSV file and encode it according to the schema; blank lines are skipped.

    Every DataError message starts with the path.
    """
    needed = [schema.response, schema.sample_flag, *(n for n, _ in schema.covariates)]
    header, rows, lines = read_rows(path, "data file")
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {missing}")
    repeated = next((c for c in needed if header.count(c) > 1), None)
    if repeated is not None:
        raise DataError(f"{path}: column {repeated!r} is repeated in the header")
    position = {c: header.index(c) for c in needed}
    width = max(position.values()) + 1
    for line, row in zip(lines, rows):
        if len(row) < width:
            short = next(c for c in needed if position[c] >= len(row))
            raise DataError(f"{path}: line {line}, column {short!r}: missing cell")
    try:
        return encode_columns({c: [row[j] for row in rows] for c, j in position.items()}, schema, lines)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# Synthetic motor-insurance portfolio. The category sets mirror a typical
# policy table (gender, district type, payment channel, engine, age group);
# the response is drawn from a log-linear model in these factors, so it is
# strictly positive. Real zero-inflated claim data needs user preprocessing
# before it fits the positive-response model families.
_PORTFOLIO_FACTORS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("gender", ("female", "male")),
    ("district", ("country", "suburban", "urban")),
    ("payment", ("cash", "transfer")),
    ("engine", ("ben", "die")),
    ("age_group", ("1", "2", "3")),
)
_PORTFOLIO_EFFECTS: dict[tuple[str, str], float] = {
    ("gender", "male"): -0.08,
    ("district", "suburban"): 0.12,
    ("district", "urban"): 0.25,
    ("payment", "transfer"): 0.05,
    ("engine", "die"): 0.18,
    ("age_group", "2"): 0.10,
    ("age_group", "3"): 0.16,
}
_PORTFOLIO_INTERCEPT = 7.6
_PORTFOLIO_SIGMA = 0.75
_PORTFOLIO_RESPONSE = "claim_amount"
_PORTFOLIO_FLAG = "insample"


def portfolio_schema() -> ColumnSchema:
    """Schema matching synthesize_portfolio / write_portfolio_csv output."""
    return ColumnSchema(
        response=_PORTFOLIO_RESPONSE,
        covariates=tuple((name, CATEGORICAL) for name, _ in _PORTFOLIO_FACTORS),
        sample_flag=_PORTFOLIO_FLAG,
    )


def _portfolio_columns(n: int, k: int, seed: int) -> dict[str, list[str]]:
    if n < 10:
        raise DataError("synthetic portfolio needs n >= 10")
    if k < 1:
        raise DataError("synthetic portfolio needs k >= 1")
    rng = np.random.default_rng(seed)
    total = n + k
    draws = {name: rng.integers(0, len(levels), size=total) for name, levels in _PORTFOLIO_FACTORS}
    eta = np.full(total, _PORTFOLIO_INTERCEPT)
    for name, levels in _PORTFOLIO_FACTORS:
        for j, level in enumerate(levels):
            effect = _PORTFOLIO_EFFECTS.get((name, level), 0.0)
            if effect:
                eta[draws[name] == j] += effect
    y = np.exp(eta + _PORTFOLIO_SIGMA * rng.standard_normal(total))
    return {
        _PORTFOLIO_RESPONSE: [repr(v) for v in y[:n].tolist()] + [""] * k,
        **{name: [levels[j] for j in draws[name].tolist()] for name, levels in _PORTFOLIO_FACTORS},
        _PORTFOLIO_FLAG: ["1"] * n + ["0"] * k,
    }


def synthesize_portfolio(n: int, k: int, seed: int) -> StudyFrame:
    """Deterministic synthetic portfolio with the standard risk factors.

    After reference coding the five categorical factors the frame has
    q = 1 + 2 + 1 + 1 + 2 = 7 columns.
    """
    return encode_columns(_portfolio_columns(n, k, seed), portfolio_schema(), list(range(2, n + k + 2)))


def write_portfolio_csv(path: str, n: int, k: int, seed: int) -> None:
    """Write the raw (pre-encoding) synthetic portfolio as a CSV file."""
    columns = _portfolio_columns(n, k, seed)  # in the file's column order
    write_rows(path, [list(columns), *zip(*columns.values())])
