import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import predvote
import reference_fixture as ref
from conftest import overflow_refits_on
from predvote.cli import main
from predvote.dataset import load_csv, write_portfolio_csv
from predvote.engine import config_from_dict
from predvote.errors import ConfigError
from predvote.matrix_io import read_matrix_csv, write_matrix_csv, write_rows

RUN_FILES = {"accuracy_matrix.csv", "w1.csv", "w2.csv", "w3.csv", "ecdf.csv", "report.json"}
SYSTEMS = {"fptp", "positional", "evaluative", "ecdf_auc"}
# SHA-256 of the SVG that plot-ecdf drew from the workspace run's ecdf.csv step file, when it still read one
WORKSPACE_PLOT_SHA256 = "0443c0f2ac00573d17661fbea910ed97cac5eaea7f8fe35a82cd43a6f610ffda"


def assert_tie_break_block(report):
    """The report names one tie-break choice per voting system, among that system's winners."""
    assert set(report["tie_break"]) == SYSTEMS
    for system, chosen in report["tie_break"].items():
        assert chosen in report["winners"][system]


def minimal_config(**overrides):
    doc = {
        "schema": {
            "response": "claim_amount",
            "sample_flag": "insample",
            "covariates": [
                {"name": "gender", "kind": "categorical"},
                {"name": "district", "kind": "categorical"},
                {"name": "payment", "kind": "categorical"},
                {"name": "engine", "kind": "categorical"},
                {"name": "age_group", "kind": "categorical"},
            ],
        },
        "generators": [{"family": "ols_normal"}],
        "strategies": [
            {"name": "ols", "family": "ols_normal"},
            {"name": "knn", "family": "knn", "hyperparams": {"k_neighbors": 5}},
        ],
        "characteristics": [{"kind": "total"}],
        "measures": [{"kind": "rmse"}],
        "iterations": 10,
        "master_seed": 3,
    }
    doc.update(overrides)
    return doc


def families(*names):
    return [{"family": name} for name in names]


def smoke_config(exposure=False, **overrides):
    """minimal_config with two generators, and median, q0.95 and qape0.95 to put order statistics under the checks."""
    doc = minimal_config(**{
        "generators": families("ols_normal", "regression_tree"),
        "characteristics": [{"kind": "total"}, {"kind": "median"}, {"kind": "quantile", "p": 0.95}],
        "measures": [{"kind": "rmse"}, {"kind": "qape", "p": 0.95}],
        "iterations": 5,
        "master_seed": 1,
        **overrides,
    })
    if exposure:
        doc["schema"]["covariates"].append({"name": "exposure", "kind": "numeric"})
    return doc


# the exposure column times 1e200 squares to overflow: knn standardises it on x / pow2_scale(x), and lstsq calls
# the parametric designs rank-short, so their solve is retried on columns divided by powers of two
HUGE_COVARIATE_TREES = smoke_config(
    exposure=True,
    generators=families("regression_tree"),
    strategies=[{"name": "knn", "family": "knn"}, {"name": "tree", "family": "regression_tree"}],
)
HUGE_COVARIATE_GLMS = smoke_config(
    exposure=True,
    generators=families("lognormal", "gamma_glm_log_link"),
    strategies=families("ols_normal", "lognormal", "gamma_glm_log_link", "knn"),
)
# a response that peaks at 1e200 (or at 2^500 times its own peak) overflows the squares of the tree's
# split scan, the residual KDE's sd and the rmse
HUGE_RESPONSE = smoke_config(
    generators=families("regression_tree", "knn"),
    strategies=families("ols_normal", "regression_tree", "knn"),
)


def quiet(capfd, *argv):
    """main(argv) exits 0 and writes nothing to stderr, read at the file-descriptor level, pool workers included."""
    code = main([str(arg) for arg in argv])
    assert (code, capfd.readouterr().err) == (0, "")


def quiet_run(capfd, doc, data, out, workers=1):
    """Write doc next to out and run it on data at --workers, quietly."""
    config = out.with_name(f"{out.name}.json")
    config.write_text(json.dumps(doc), encoding="utf-8")
    quiet(capfd, "run", "--config", config, "--data", data, "--out", out, "--workers", workers)


def read_report(out):
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def run_in_subprocess(cwd: Path, workers: str) -> subprocess.CompletedProcess:
    """predvote run --config config.json --data data.csv --out out in cwd, in a fresh interpreter."""
    src = str(Path(predvote.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [
            sys.executable, "-c", "import sys; from predvote.cli import main; sys.exit(main(sys.argv[1:]))",
            "run", "--config", "config.json", "--data", "data.csv", "--out", "out", "--workers", workers,
        ],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    write_portfolio_csv(str(data), 50, 10, 5)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(minimal_config()), encoding="utf-8")
    return tmp_path, config, data


@pytest.fixture(scope="module")
def smoke_data(tmp_path_factory):
    """Data CSVs written once per module: write_portfolio_csv(100, 40, 1) as 'portfolio', and its variants with a
    numeric 'exposure' column, with that column times 1e200, and with claim_amount scaled to peak at 1e200 or
    1.7e308, or times 2^500; 'workspace' is the workspace fixture's data."""
    tmp = tmp_path_factory.mktemp("smoke")
    paths = {name: tmp / f"{name}.csv" for name in (
        "workspace", "portfolio", "exposure", "exposure_1e200", "claims_1e200", "claims_1.7e308", "claims_2e500",
    )}
    write_portfolio_csv(str(paths["workspace"]), 50, 10, 5)
    write_portfolio_csv(str(paths["portfolio"]), 100, 40, 1)
    with open(paths["portfolio"], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    exposure = [0.25 + (i * 37 % 101) / 50 for i in range(len(rows))]
    for name, factor in (("exposure", 1.0), ("exposure_1e200", 1e200)):
        write_rows(paths[name], [[*header, "exposure"], *([*row, repr(v * factor)] for row, v in zip(rows, exposure))])
    at = header.index("claim_amount")
    peak = max(float(row[at]) for row in rows if row[at])
    scales = {"claims_1e200": 1e200 / peak, "claims_1.7e308": 1.7e308 / peak, "claims_2e500": 2.0**500}
    for name, factor in scales.items():
        scaled = ([*row[:at], repr(float(row[at]) * factor) if row[at] else "", *row[at + 1:]] for row in rows)
        write_rows(paths[name], [header, *scaled])
    return paths


@pytest.fixture(scope="module")
def workspace_run(smoke_data, tmp_path_factory):
    """The output directory of one run of minimal_config() on the workspace data, made once per module."""
    tmp = tmp_path_factory.mktemp("workspace_run")
    config = tmp / "config.json"
    config.write_text(json.dumps(minimal_config()), encoding="utf-8")
    out = tmp / "out"
    assert main(["run", "--config", str(config), "--data", str(smoke_data["workspace"]), "--out", str(out)]) == 0
    return out


@pytest.fixture
def refusal_dir(tmp_path, monkeypatch):
    """An empty working directory but for a file 'afile' that reads 'kept'; the table rows name paths relative to it."""
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("kept", encoding="utf-8")


def assert_nothing_written(*inputs):
    """The working directory holds afile, unchanged, and the given inputs: the refused command wrote nothing."""
    assert sorted(os.listdir()) == sorted(["afile", *inputs])
    assert Path("afile").read_text(encoding="utf-8") == "kept"


def write_input(path, body):
    """Write body (str as UTF-8, or bytes) at path; a body of None leaves the file missing."""
    if body is not None:
        Path(path).write_bytes(body.encode("utf-8") if isinstance(body, str) else body)
    return [] if body is None else [path]


class RunOnly(NamedTuple):
    """A rule that `predvote run` alone enforces: edit changes minimal_config() in place, text maps the edited
    document's JSON to the config file's body (None: no file), and --out and extra options follow."""

    edit: Callable = lambda doc: None
    text: Callable = lambda text: text
    out: str = "out"
    options: tuple = ()


def prepend(key, entry):
    return lambda doc: doc[key].insert(0, entry)


# RunConfig's scalar fields, which the library path checks through dataclasses.replace as well
SCALAR_FIELDS = {"iterations", "master_seed", "failure_ceiling", "kde_bandwidth"}
FAMILIES = "('ols_normal', 'lognormal', 'gamma_glm_log_link', 'regression_tree', 'knn')"

# One row per configuration rule: an edit of minimal_config() and the exact message it is refused with. An edit is
# a dict of top-level fields or a function that changes the document in place; a RunOnly row holds a rule that
# only the CLI enforces.
CONFIG_REFUSALS = [
    pytest.param({"generators": []}, "generators: at least one data-generation model required", id="no-generator"),
    pytest.param(
        lambda doc: doc["strategies"].pop(), "strategies: at least two strategies required", id="one-strategy"
    ),
    *(
        pytest.param({key: value}, f"{key}: must be a list of entries, got {value!r}", id=f"{key}-as-{kind}")
        for key in ("generators", "strategies", "characteristics", "measures")
        for kind, value in (("int", 5), ("str", "ols_normal"), ("dict", {"family": "ols_normal"}))
    ),
    pytest.param({"tuning": {}}, "configuration: unknown field(s) ['tuning']", id="unknown-field"),
    # the worker count is --workers alone, a machine setting; the document holds the study
    *(
        pytest.param({"parallelism": v}, "configuration: unknown field(s) ['parallelism']", id=f"parallelism-{v}")
        for v in ("auto", 2, None)
    ),
    # each name or label is one row or column of the accuracy matrix: a repeat would merge silently or vote twice
    pytest.param(
        lambda doc: doc["strategies"].append({"name": "ols", "family": "knn"}),
        "strategies: names must be unique, 'ols' is repeated",
        id="strategy-name-repeated",
    ),
    pytest.param(
        {"characteristics": [{"kind": "total"}, {"kind": "mean", "name": "total"}]},
        "characteristics: names must be unique, 'total' is repeated",
        id="characteristic-name-repeated",
    ),
    pytest.param(
        {"characteristics": [{"kind": "quantile", "p": 0.95}, {"kind": "quantile", "p": 0.95}]},
        "characteristics: names must be unique, 'q0.95' is repeated",
        id="default-characteristic-name-repeated",
    ),
    pytest.param(
        {"measures": [{"kind": "rmse"}, {"kind": "rmse"}]},
        "measures: labels must be unique, 'rmse' is repeated",
        id="measure-label-repeated",
    ),
    pytest.param(
        {"measures": [{"kind": "qape", "p": 0.95}, {"kind": "qape", "p": 0.9500001}]},
        "measures: labels must be unique, 'qape0.95' is repeated",
        id="measure-labels-equal-once-rounded",
    ),
    # a non-string name would reach json.dumps(sort_keys=True) only after the whole simulation; only a missing or
    # empty name takes the family's, and these once ran as 'ols_normal'
    *(
        pytest.param(
            prepend("strategies", {"name": name, "family": "ols_normal"}),
            f"strategies[0]: strategy needs a non-empty name string, got {name!r}",
            id=f"strategy-name-{kind}",
        )
        for kind, name in (("5", 5), ("null", None), ("false", False), ("zero", 0), ("empty-list", []))
    ),
    pytest.param(
        prepend("characteristics", {"kind": "total", "name": 7}),
        "characteristics[0]: characteristic name must be a string, got 7",
        id="characteristic-name-7",
    ),
    # a numeric covariate name once read a CSV column called '5', and a numeric response exited 3 after the read
    *(
        pytest.param(edit, "schema: schema names and kinds must be strings, got 5", id=f"schema-{where}-5")
        for where, edit in (
            ("response", lambda doc: doc["schema"].update(response=5)),
            ("sample-flag", lambda doc: doc["schema"].update(sample_flag=5)),
            ("covariate-name", lambda doc: doc["schema"]["covariates"][0].update(name=5)),
            ("covariate-kind", lambda doc: doc["schema"]["covariates"][0].update(kind=5)),
        )
    ),
    # an entry of the wrong shape gets a predvote message, not Python's wording for a failed **, which varies by version
    pytest.param({"schema": None}, "schema: must be a mapping, got None", id="schema-null"),
    pytest.param({"generators": ["lognormal"]}, "generators[0]: must be a mapping, got 'lognormal'", id="entry-as-str"),
    *(
        pytest.param(lambda doc, value=value: doc["schema"].update(covariates=value), message, id=f"covariates-{where}")
        for where, value, message in (
            ("null", None, "schema.covariates: must be a list of entries, got None"),
            ("of-str", ["gender"], "schema.covariates[0]: must be a mapping, got 'gender'"),
        )
    ),
    # a key that no constructor takes was once dropped, and the entry ran with its defaults; an unknown or a missing
    # key is named at its own depth, in the same words at every depth
    *(
        pytest.param(edit, f"{where}: unknown field(s) [{key!r}]", id=f"misspelled-{key}")
        for where, key, edit in (
            ("generators[0]", "hyperparam", lambda doc: doc["generators"][0].update(hyperparam={"max_depth": 3})),
            ("strategies[1]", "hyperparms", lambda doc: doc["strategies"][1].update(hyperparms={"k_neighbors": 50})),
            ("characteristics[0]", "nmae", lambda doc: doc["characteristics"][0].update(nmae="x")),
            ("measures[0]", "foo", lambda doc: doc["measures"][0].update(foo=1)),
            ("measures[0]", "label", lambda doc: doc["measures"][0].update(label="q")),
            ("schema", "sample_flg", lambda doc: doc["schema"].update(sample_flg="s")),
            ("schema.covariates[1]", "knd", lambda doc: doc["schema"]["covariates"][1].update(knd="numeric")),
        )
    ),
    *(
        pytest.param(edit, f"{where}: missing required field(s) [{key!r}]", id=f"no-{id}")
        for where, key, id, edit in (
            ("configuration", "measures", "measures", lambda doc: doc.pop("measures")),
            ("generators[0]", "family", "generator-family", lambda doc: doc["generators"][0].pop("family")),
            ("strategies[1]", "family", "strategy-family", lambda doc: doc["strategies"][1].pop("family")),
            ("schema", "covariates", "covariates", lambda doc: doc["schema"].pop("covariates")),
            ("schema", "response", "response", lambda doc: doc["schema"].pop("response")),
            ("schema.covariates[1]", "kind", "covariate-kind", lambda doc: doc["schema"]["covariates"][1].pop("kind")),
        )
    ),
    pytest.param(
        lambda doc: doc["generators"][0].update(family="svm"),
        f"generators[0]: unknown model family 'svm'; choose one of {FAMILIES}",
        id="unknown-family",
    ),
    pytest.param(
        lambda doc: doc["measures"].append({"kind": "qape", "p": 2.0}),
        "measures[1]: qape measure needs a number p in (0, 1), got 2.0",
        id="qape-order-outside-0-1",
    ),
    pytest.param(
        lambda doc: doc["strategies"][1].update(hyperparams=[["k_neighbors", 7]]),
        "strategies[1]: knn: hyperparams must be a mapping, got [['k_neighbors', 7]]",
        id="list-hyperparams",
    ),
    # int() would truncate 3.9 to 3 and read true as 1, and float() would read "0.5" as 0.5 and false as 0.0
    *(
        pytest.param({key: value}, f"{key}: {rule}, got {value!r}", id=f"{key}-{value!r}")
        for key, rule, values in (
            ("iterations", "need an integer, at least 2 and at most 4294967296", (1, 3.9)),
            ("master_seed", "must be an integer in [0, 2^64)", (-1, 2**64, 1.7, "1")),
            ("failure_ceiling", "must be a number in [0, 1)", (1.0, "0.5", False, None)),
            ("kde_bandwidth", "must be 'silverman' or a finite positive number", ("scott", -1.0)),
        )
        for value in values
    ),
    pytest.param(
        RunOnly(text=lambda text: None),
        "cannot read configuration config.json: [Errno 2] No such file or directory: 'config.json'",
        id="no-config-file",
    ),
    pytest.param(
        RunOnly(text=lambda text: b'{"schema": "\xe9"}'),
        "cannot read configuration config.json: not UTF-8 (invalid continuation byte)",
        id="latin-1-config",
    ),
    pytest.param(
        RunOnly(text=lambda text: "{not json"),
        "config.json: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        id="invalid-json",
    ),
    pytest.param(RunOnly(text=lambda text: "[]"), "configuration: must be a mapping, got []", id="list-root"),
    # json.loads would keep the last copy of a repeated key without a word
    *(
        pytest.param(
            RunOnly(text=lambda text, once=once, twice=twice: text.replace(once, twice, 1)),
            f"configuration key {key!r} is repeated",
            id=f"repeated-{where}-key",
        )
        for where, once, twice, key in (
            ("top-level", '"iterations": 10', '"iterations": 10, "iterations": 5000', "iterations"),
            ("entry", '"hyperparams": {"k_neighbors": 5}', '"hyperparams": {"k_neighbors": 5}, "hyperparams": {}',
             "hyperparams"),
            ("covariate", '"kind": "categorical"}', '"kind": "categorical", "kind": "numeric"}', "kind"),
        )
    ),
    pytest.param(RunOnly(edit=lambda doc: doc.pop("schema")), "schema: required to load the data CSV", id="no-schema"),
    pytest.param(
        RunOnly(options=("--workers", "0")), "workers: must be a positive integer or unset, got 0", id="zero-workers"
    ),
    *(
        pytest.param(RunOnly(out=out), f"cannot write --out {out}: afile exists and is not a directory", id=where)
        for where, out in (("out-is-a-file", "afile"), ("out-under-a-file", "afile/sub"))
    ),
]


@pytest.mark.parametrize("edit,message", CONFIG_REFUSALS)
def test_run_refuses_the_configuration_before_reading_the_data(refusal_dir, capsys, edit, message):
    # the library refuses a document rule with the CLI's message; the data path does not exist, so exit 2
    # shows that run refused the document before it read the data
    run_only = isinstance(edit, RunOnly)
    cli = edit if run_only else RunOnly(edit=edit if callable(edit) else lambda doc: doc.update(edit))
    doc = minimal_config()
    cli.edit(doc)
    inputs = write_input("config.json", cli.text(json.dumps(doc)))
    if not run_only:
        with pytest.raises(ConfigError) as raised:
            config_from_dict(doc)
        assert str(raised.value) == message
    if isinstance(edit, dict) and set(edit) <= SCALAR_FIELDS:
        with pytest.raises(ConfigError) as raised:
            dataclasses.replace(config_from_dict(minimal_config()), **edit)
        assert str(raised.value) == message
    code = main(["run", "--config", "config.json", "--data", "absent.csv", "--out", cli.out, *cli.options])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert_nothing_written(*inputs)


def test_no_configuration_refusal_is_worded_as_a_python_call():
    # Python's own wording for a failed call ("missing 1 required positional argument", "got an unexpected keyword
    # argument") names the function, not the document's place, and changes between Python versions
    worded_as_calls = [row.id for row in CONFIG_REFUSALS if "()" in row.values[1] or "__init__" in row.values[1]]
    assert worded_as_calls == []


GOOD_MATRIX = "voter,a,b\nr1,0.1,0.2\nr2,0.3,0.1\n"
BOTH = ("vote", "plot-ecdf")
OUT = {"vote": "out", "plot-ecdf": "out.svg"}


def matrix_refusal(body, commands, code, message, id, out=None):
    """One row per command: body as for write_input, or a function of the workspace run's output directory."""
    return [
        pytest.param(body, command, out or OUT[command], code, message, id=f"{id}-{command}") for command in commands
    ]


MATRIX_REFUSALS = [
    *matrix_refusal(
        None, BOTH, 3, "cannot read matrix file matrix.csv: [Errno 2] No such file or directory: 'matrix.csv'",
        "no-file",
    ),
    # a matrix that is not UTF-8 is a data error, not a traceback
    *matrix_refusal(
        "voter,a,b\nr\xe9,0.1,0.2\nr2,0.3,0.1\n".encode("latin-1"), BOTH, 3,
        "cannot read matrix file matrix.csv: not UTF-8 (invalid continuation byte)", "latin-1",
    ),
    # read as a 2-column matrix, the run's step file would elect a strategy named 'cdf'
    *matrix_refusal(
        lambda run: (run / "ecdf.csv").read_bytes(), BOTH, 3,
        "matrix.csv: an ECDF step file (strategy,x,cdf), not a labeled matrix", "run-ecdf-step-file",
    ),
    *matrix_refusal(
        "voter,a,b\n", BOTH, 3, "matrix.csv: expected a header row plus at least one labeled data row", "header-only"
    ),
    *matrix_refusal(
        "voter,,b\nr1,0.1,0.2\nr2,0.3,0.1\n", BOTH, 3,
        "matrix.csv: column 2 has an empty label; each strategy needs a name", "empty-label",
    ),
    # keyed by name, the two 'a' columns (1 and 2 first-place votes) would merge silently
    *matrix_refusal(
        "voter,a,a,b\nr1,0.1,0.2,0.3\nr2,0.3,0.2,0.1\nr3,0.2,0.1,0.3\n", BOTH, 3,
        "matrix.csv: column label 'a' is repeated; strategy names must be unique", "repeated-label",
    ),
    *matrix_refusal("voter,a,b\nr1,1.0\n", BOTH, 3, "matrix.csv, line 2: expected 3 cells, found 2", "short-row"),
    *matrix_refusal(
        "voter,a,b\nr1,1.0,x\n", BOTH, 3, "matrix.csv, line 2: column 'b': cannot parse 'x' as a number",
        "unparsable-cell",
    ),
    *matrix_refusal(
        "voter,a,b\nr1,0.1,0.2\nr2,inf,0.1\n", BOTH, 3, "matrix.csv, line 3: column 'a': non-finite value 'inf'",
        "non-finite-cell",
    ),
    *matrix_refusal(
        "voter,a,b\nr1,-0.1,0.2\nr2,0.3,0.1\n", ("vote",), 3, "matrix.csv: accuracy matrix entries must be nonnegative",
        "negative-entry",
    ),
    *matrix_refusal(
        "voter,a,b\nr1,-0.1,0.2\nr2,0.3,0.1\n", ("plot-ecdf",), 3, "matrix.csv: scaled scores must lie in [0, 1]",
        "negative-entry",
    ),
    *matrix_refusal(
        "voter,a,b\nr1,0.5,1.5\n", ("plot-ecdf",), 3, "matrix.csv: scaled scores must lie in [0, 1]", "entry-above-1"
    ),
    *matrix_refusal("voter,a\nr1,0.1\n", ("vote",), 3, "matrix.csv: need at least two strategy columns", "one-column"),
    *matrix_refusal(
        GOOD_MATRIX, ("vote",), 2, "cannot write --out afile: afile exists and is not a directory", "out-is-a-file",
        out="afile",
    ),
    *matrix_refusal(
        GOOD_MATRIX, ("vote",), 2, "cannot write --out afile/sub: afile exists and is not a directory",
        "out-under-a-file", out="afile/sub",
    ),
    *matrix_refusal(
        GOOD_MATRIX, ("plot-ecdf",), 2, "cannot write --out afile/x.svg: afile exists and is not a directory",
        "out-under-a-file", out="afile/x.svg",
    ),
    *matrix_refusal(
        GOOD_MATRIX, ("plot-ecdf",), 2, "cannot write --out .: [Errno 21] Is a directory: '.'", "out-is-a-directory",
        out=".",
    ),
]


@pytest.mark.parametrize("body,command,out,code,message", MATRIX_REFUSALS)
def test_vote_and_plot_ecdf_refuse_the_matrix_file(refusal_dir, workspace_run, capsys, body, command, out, code,
                                                    message):
    inputs = write_input("matrix.csv", body(workspace_run) if callable(body) else body)
    assert (main([command, "matrix.csv", "--out", out]), capsys.readouterr().err) == (code, f"error: {message}\n")
    assert_nothing_written(*inputs)


class TestCmdRun:
    def test_smoke_writes_six_files(self, workspace):
        tmp, config, data = workspace
        out = tmp / "out"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        report = json.loads((out / "report.json").read_text())
        assert set(report["criteria"]) == SYSTEMS
        assert set(report["winners"]) == SYSTEMS
        assert report["final_predictions"]

    def test_plot_ecdf_draws_the_run_curves_from_w3_only(self, workspace, workspace_run, capsys):
        # a run writes no SVG; plot-ecdf draws, from the w3 matrix, the bytes it once drew from the step file
        tmp, config, data = workspace
        assert {p.name for p in workspace_run.iterdir()} == RUN_FILES
        svg = tmp / "w3.svg"
        assert main(["plot-ecdf", str(workspace_run / "w3.csv"), "--out", str(svg)]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == WORKSPACE_PLOT_SHA256
        capsys.readouterr()
        for option in ("--svg", "--tie-break"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x"), option])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_seed_option_is_unrecognized(self, workspace, capsys):
        # the configuration's master_seed is the one source of the seed
        tmp, config, data = workspace
        out = tmp / "x"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), "--data", str(data), "--out", str(out), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_marks_are_read(self, workspace, capfd):
        # Excel's "CSV UTF-8" export starts the file with a BOM
        tmp, config, data = workspace
        quiet(capfd, "run", "--config", config, "--data", data, "--out", tmp / "plain")
        bom_config, bom_data = tmp / "bom_config.json", tmp / "bom_data.csv"
        bom_config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        bom_data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        quiet(capfd, "run", "--config", bom_config, "--data", bom_data, "--out", tmp / "bom")
        for name in ("accuracy_matrix.csv", "w3.csv"):
            assert (tmp / "bom" / name).read_bytes() == (tmp / "plain" / name).read_bytes()

    def test_readme_example_runs_or_names_failing_pairs(self, tmp_path, capsys):
        # the documented configuration runs on the bundled data, or fails naming each listed
        # (generator, strategy) pair with its failure share and first reason, equally at
        # workers 1 and 2; it exits 4 until positive responses are handled
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        doc["iterations"] = 20
        config, data = tmp_path / "config.json", tmp_path / "data.csv"
        config.write_text(json.dumps(doc), encoding="utf-8")
        write_portfolio_csv(str(data), n=500, k=100, seed=1)
        outcomes = []
        for workers in ("1", "2"):
            code = main([
                "run", "--config", str(config), "--data", str(data),
                "--out", str(tmp_path / f"out{workers}"), "--workers", workers,
            ])
            outcomes.append((code, capsys.readouterr().err))
        code, err = outcomes[0]
        assert outcomes[1] == outcomes[0]
        if code == 0:
            return
        strategies = "|".join(re.escape(s["name"]) for s in doc["strategies"])
        named = re.findall(rf"gen\d+_\w+ × (?:{strategies}) \(\d+\.\d\d%: [^)]+\)", err)
        assert code == 4 and named and len(named) == err.count(" × "), err

    def test_overflowing_characteristic_exits_4(self, tmp_path):
        # the simulated population's total overflows to inf; every draw is finite
        rng = np.random.default_rng(0)
        y = np.exp(707 + 0.3 * rng.standard_normal(40))
        sample = [f"{v!r},{i % 2},1" for i, v in enumerate(y.tolist())]
        lines = ["y,x,insample", *sample, *(f",{i % 2},0" for i in range(10))]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = minimal_config(
            schema={"response": "y", "sample_flag": "insample", "covariates": [{"name": "x", "kind": "numeric"}]},
            generators=[{"family": "lognormal"}],
            strategies=[{"family": "lognormal"}, {"family": "knn", "hyperparams": {"k_neighbors": 3}}],
            iterations=4,
        )
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        errors = []
        for workers in ("1", "2"):
            done = run_in_subprocess(tmp_path, workers)
            assert done.returncode == 4, done.stderr
            errors.append(done.stderr)
        assert errors[0] == errors[1] == (
            "error: generator 'gen1_lognormal', iteration 1: "
            "characteristic 'total' of the simulated population is not finite\n"
        )

    def test_non_finite_draw_exits_4_naming_its_generator_and_iteration(self, tmp_path, capsys):
        # log y runs from 690 to 709, so the lognormal scale is finite, but a draw of exp(eta + noise)
        # passes the largest double (e^709.78) in the first iteration
        y = np.exp(np.linspace(690.0, 709.0, 40))
        sample = [f"{v!r},{'ab'[i % 2]},1" for i, v in enumerate(y.tolist())]
        (tmp_path / "data.csv").write_text("\n".join(["y,c,insample", *sample, ",a,0", ",b,0"]) + "\n", encoding="utf-8")
        doc = minimal_config(
            schema={"response": "y", "sample_flag": "insample", "covariates": [{"name": "c", "kind": "categorical"}]},
            generators=[{"family": "lognormal"}],
            iterations=3,
        )
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(tmp_path / "config.json"), "--data", str(tmp_path / "data.csv")]
        assert main([*argv, "--out", str(tmp_path / "out"), "--workers", "1"]) == 4
        assert capsys.readouterr().err == (
            "error: generator 'gen1_lognormal', iteration 1: generated population contains non-finite values\n"
        )

    def test_non_finite_generator_scale_exits_2_before_any_cell(self, tmp_path):
        # the response spans 600 decades, so the ols_normal residual variance overflows; the run
        # refuses that generator before any cell, and numpy's overflow warning never reaches stderr
        y = np.geomspace(1e-300, 1e300, 40)
        sample = [f"{v!r},{'ab'[i % 2]},1" for i, v in enumerate(y.tolist())]
        (tmp_path / "data.csv").write_text("\n".join(["y,c,insample", *sample, ",a,0", ",b,0"]) + "\n", encoding="utf-8")
        doc = minimal_config(
            schema={"response": "y", "sample_flag": "insample", "covariates": [{"name": "c", "kind": "categorical"}]},
            generators=[{"family": "ols_normal"}, {"family": "lognormal"}],
            iterations=3,
        )
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        done = run_in_subprocess(tmp_path, "1")
        assert done.returncode == 2
        assert done.stderr == (
            "error: generator 'gen1_ols_normal': the residual variance of its sample fit is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_overflowing_tree_generator_fit_exits_2_before_the_kde(self, smoke_data, tmp_path):
        # the largest response is 1.7e308, so a leaf mean overflows; the run refuses the generator's
        # fit instead of blaming the residual KDE's bandwidth, and no numpy warning reaches stderr
        (tmp_path / "data.csv").write_bytes(smoke_data["claims_1.7e308"].read_bytes())
        doc = minimal_config(generators=[{"family": "regression_tree"}], iterations=3)
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        done = run_in_subprocess(tmp_path, "1")
        assert done.returncode == 2
        assert done.stderr == (
            "error: generator 'gen1_regression_tree': the residuals of its sample fit are not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_non_positive_gamma_mean_exits_4_naming_its_generator(self, tmp_path, capsys):
        # the fitted Gamma mean falls with x and underflows to zero at the out-of-sample row x = 1e4
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 40)
        y = rng.gamma(5.0, np.exp(2.0 - 3.0 * x) / 5.0)
        sample = [f"{a!r},{b!r},1" for a, b in zip(y.tolist(), x.tolist())]
        (tmp_path / "data.csv").write_text("\n".join(["y,x,insample", *sample, ",10000.0,0"]) + "\n", encoding="utf-8")
        doc = minimal_config(
            schema={"response": "y", "sample_flag": "insample", "covariates": [{"name": "x", "kind": "numeric"}]},
            generators=[{"family": "ols_normal"}, {"family": "gamma_glm_log_link"}],
            iterations=3,
        )
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(tmp_path / "config.json"), "--data", str(tmp_path / "data.csv")]
        assert main([*argv, "--out", str(tmp_path / "out"), "--workers", "1"]) == 4
        assert capsys.readouterr().err == (
            "error: generator 'gen2_gamma_glm_log_link': gamma generation: "
            "non-positive fitted mean on out-of-sample row 1\n"
        )

    def test_non_finite_winner_prediction_exits_4_without_a_report(self, workspace, capsys, monkeypatch):
        # every refit on the real sample predicts inf; the simulated samples refit as usual
        # (neither strategy is knn, whose plan averages y_s without a refit)
        tmp, config, data = workspace
        doc = minimal_config(strategies=[
            {"name": "ols", "family": "ols_normal"},
            {"name": "null", "family": "ols_normal", "hyperparams": {"intercept_only": True}},
        ])
        config.write_text(json.dumps(doc), encoding="utf-8")
        overflow_refits_on(monkeypatch, load_csv(str(data), config_from_dict(doc).schema).y_sample)
        out = tmp / "out"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out), "--workers", "1"]) == 4
        assert re.fullmatch(
            r"error: a winning strategy cannot be fitted on the real sample: "
            r"strategy '(ols|null)': plug-in prediction of 'total' is not finite\n",
            capsys.readouterr().err,
        )
        assert not out.exists()

    def test_missing_data_exits_3(self, workspace, capsys):
        tmp, config, _ = workspace
        data, out = tmp / "nope.csv", tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 3
        reason = f"[Errno 2] No such file or directory: '{data}'"
        assert capsys.readouterr().err == f"error: cannot read data file {data}: {reason}\n"
        assert not out.exists()

    def test_data_schema_mismatch_exits_3(self, workspace, tmp_path, capsys):
        tmp, config, _ = workspace
        bad_data, out = tmp_path / "bad.csv", tmp / "x"
        bad_data.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(bad_data), "--out", str(out)]) == 3
        missing = ["claim_amount", "insample", "gender", "district", "payment", "engine", "age_group"]
        assert capsys.readouterr().err == f"error: {bad_data}: missing column(s) {missing}\n"
        assert not out.exists()

    def test_repeated_data_column_exits_3(self, workspace, tmp_path, capsys):
        tmp, config, data = workspace
        lines = data.read_text(encoding="utf-8").splitlines()
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join(f"{line},{line.split(',')[1]}" for line in lines) + "\n", encoding="utf-8")
        assert lines[0].split(",")[1] == "gender"
        assert main(["run", "--config", str(config), "--data", str(doubled), "--out", str(tmp / "x")]) == 3
        assert "column 'gender' is repeated in the header" in capsys.readouterr().err

    def test_configured_seed_changes_results_and_reproduces(self, workspace):
        tmp, _, data = workspace
        configs = {}
        for seed in (11, 12):
            configs[seed] = tmp / f"seed{seed}.json"
            configs[seed].write_text(json.dumps(minimal_config(master_seed=seed)), encoding="utf-8")
        outs = [tmp / f"o{i}" for i in range(3)]
        for out, seed in zip(outs, [11, 11, 12]):
            assert main(["run", "--config", str(configs[seed]), "--data", str(data), "--out", str(out)]) == 0
        a, b, c = [(o / "accuracy_matrix.csv").read_bytes() for o in outs]
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "data,doc,workers",
        [
            pytest.param("workspace", minimal_config(), 8, id="workspace-8"),
            # the pool's chunks of cells ship the tree generator's residual KDE
            pytest.param("portfolio", smoke_config(), 2, id="smoke-2"),
            # one generator and B = 2 make two cells, so --workers 4 starts a pool of two
            pytest.param("portfolio", smoke_config(generators=families("ols_normal"), iterations=2), 4, id="g1-b2-4"),
            # a numeric covariate is encoded over every row in file order
            pytest.param("exposure", smoke_config(exposure=True), 2, id="numeric-covariate-2"),
            pytest.param("exposure_1e200", HUGE_COVARIATE_TREES, 2, id="1e200-covariate-trees-2"),
            pytest.param("exposure_1e200", HUGE_COVARIATE_GLMS, 2, id="1e200-covariate-parametric-2"),
            pytest.param("claims_1e200", HUGE_RESPONSE, 2, id="1e200-response-2"),
        ],
    )
    def test_worker_count_byte_identical(self, smoke_data, tmp_path, capfd, data, doc, workers):
        # the run at --workers N writes the serial run's five CSVs byte for byte, and its report.json
        # but for the worker count and the wall time; both runs write nothing to stderr
        outs = [tmp_path / "w1", tmp_path / f"w{workers}"]
        for out, n in zip(outs, (1, workers)):
            quiet_run(capfd, doc, smoke_data[data], out, n)
        for name in sorted(RUN_FILES - {"report.json"}):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        reports = [read_report(out) for out in outs]
        for report in reports:
            del report["metadata"]["workers"], report["metadata"]["wall_time_seconds"]
        assert reports[0] == reports[1]

    def test_huge_covariate_keeps_the_winners_of_the_unscaled_one(self, smoke_data, tmp_path, capfd):
        # the parametric solves on the exposure column times 1e200 are retried on power-of-two-scaled columns
        for data in ("exposure_1e200", "exposure"):
            quiet_run(capfd, HUGE_COVARIATE_GLMS, smoke_data[data], tmp_path / data)
        assert read_report(tmp_path / "exposure_1e200")["winners"] == read_report(tmp_path / "exposure")["winners"]

    def test_response_times_2_to_the_500_scales_every_accuracy_entry_exactly(self, smoke_data, tmp_path, capfd):
        # each overflowing square is rescued by an exact power-of-two rescale, so every accuracy entry scales
        # by exactly 2^500, and w1-w3 and the winners stay those of the unscaled run
        base, scaled = tmp_path / "base", tmp_path / "scaled"
        quiet_run(capfd, HUGE_RESPONSE, smoke_data["portfolio"], base)
        quiet_run(capfd, HUGE_RESPONSE, smoke_data["claims_2e500"], scaled)
        for name in ("w1.csv", "w2.csv", "w3.csv"):
            assert (base / name).read_bytes() == (scaled / name).read_bytes(), name
        entries, rows, cols = read_matrix_csv(str(base / "accuracy_matrix.csv"))
        scaled_entries, scaled_rows, scaled_cols = read_matrix_csv(str(scaled / "accuracy_matrix.csv"))
        assert (scaled_rows, scaled_cols) == (rows, cols)
        assert np.array_equal(scaled_entries, entries * 2.0**500)
        assert read_report(scaled)["winners"] == read_report(base)["winners"]

    def test_run_vote_and_plot_ecdf_write_nothing_to_stderr(self, smoke_data, tmp_path, capfd):
        # so do a vote and a plot on strategy names holding & and <, which the legend escapes; every SVG parses
        run, vote = tmp_path / "run", tmp_path / "vote"
        quiet_run(capfd, smoke_config(), smoke_data["portfolio"], run)
        quiet(capfd, "vote", run / "accuracy_matrix.csv", "--out", vote)
        quiet(capfd, "plot-ecdf", run / "w3.csv", "--out", tmp_path / "plot.svg")
        markup = tmp_path / "markup.csv"
        markup.write_text("voter,a&b,<c>\nr1,0.1,0.2\nr2,0.3,0.1\n", encoding="utf-8")
        quiet(capfd, "vote", markup, "--out", tmp_path / "vote_markup")
        quiet(capfd, "plot-ecdf", tmp_path / "vote_markup" / "w3.csv", "--out", tmp_path / "markup.svg")
        for path in (run / "accuracy_matrix.csv", run / "w3.csv", run / "report.json", vote / "report.json"):
            assert path.stat().st_size > 0, path
        svgs = sorted(tmp_path.glob("*.svg"))
        assert [svg.name for svg in svgs] == ["markup.svg", "plot.svg"]
        for svg in svgs:
            ET.parse(svg)

    def test_tie_break_block_always_present(self, workspace):
        tmp, config, data = workspace
        out = tmp / "tb"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        assert_tie_break_block(json.loads((out / "report.json").read_text()))

    def test_report_holds_each_value_once(self, workspace):
        # the winners' accuracy rows live in accuracy_matrix.csv, and the version once at the top
        tmp, config, data = workspace
        out = tmp / "once"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "winner_accuracy" not in report
        assert "version" not in report["metadata"]
        assert report["version"] == predvote.__version__


class TestCmdVote:
    def write_reference_matrix(self, path):
        write_matrix_csv(path, ref.ACCURACY_ROWS, ref.ROW_LABELS, ref.STRATEGIES)

    def test_reference_rows_reproduce_tables(self, tmp_path):
        matrix_path = tmp_path / "a.csv"
        self.write_reference_matrix(str(matrix_path))
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 0
        w1, _, _ = read_matrix_csv(str(out / "w1.csv"))
        w2, _, _ = read_matrix_csv(str(out / "w2.csv"))
        w3, _, _ = read_matrix_csv(str(out / "w3.csv"))
        assert np.array_equal(w1, ref.W1_EXPECTED)
        assert np.array_equal(w2, ref.W2_EXPECTED)
        assert np.max(np.abs(w3 - ref.W3_EXPECTED)) <= ref.W3_TOLERANCE

    def test_dominance_diagnostics_in_report(self, tmp_path):
        matrix_path = tmp_path / "a.csv"
        self.write_reference_matrix(str(matrix_path))
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["dominance"]) == {"first_order", "second_order"}
        first = {tuple(pair) for pair in report["dominance"]["first_order"]}
        second = {tuple(pair) for pair in report["dominance"]["second_order"]}
        assert first <= second  # first-order dominance implies second-order
        for better, worse in second:
            assert better in ref.STRATEGIES and worse in ref.STRATEGIES

    def test_single_row_two_columns_hand_evaluation(self, tmp_path):
        matrix_path = tmp_path / "m.csv"
        write_matrix_csv(str(matrix_path), np.array([[1.0, 2.0]]), ["r1"], ["a", "b"])
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["criteria"]["fptp"] == {"a": 1.0, "b": 0.0}
        assert report["criteria"]["positional"] == {"a": 2.0, "b": 1.0}
        assert report["criteria"]["evaluative"] == {"a": 1.0, "b": 0.0}
        assert report["criteria"]["ecdf_auc"] == {"a": 0.0, "b": 1.0}
        assert report["winners"] == {
            "fptp": ["a"], "positional": ["a"], "evaluative": ["a"], "ecdf_auc": ["a"],
        }

    def test_tie_break_block_always_present(self, tmp_path, capsys):
        matrix_path = tmp_path / "a.csv"
        self.write_reference_matrix(str(matrix_path))
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 0
        assert_tie_break_block(json.loads((out / "report.json").read_text()))
        with pytest.raises(SystemExit) as exc:
            main(["vote", str(matrix_path), "--out", str(tmp_path / "x"), "--tie-break"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tie-break" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_output_that_cannot_be_written_inside_out_exits_2(self, tmp_path, monkeypatch, capsys):
        # --out exists, so the check before any work passes; the write of w1.csv fails with the same error
        monkeypatch.chdir(tmp_path)
        self.write_reference_matrix("a.csv")
        Path("out", "w1.csv").mkdir(parents=True)
        assert main(["vote", "a.csv", "--out", "out"]) == 2
        assert capsys.readouterr().err == "error: cannot write --out out: [Errno 21] Is a directory: 'out/w1.csv'\n"


class TestPipelineIdempotence:
    def test_vote_on_emitted_matrix_reproduces_run(self, workspace):
        tmp, config, data = workspace
        run_out = tmp / "run_out"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(run_out)]) == 0
        vote_out = tmp / "vote_out"
        assert main(["vote", str(run_out / "accuracy_matrix.csv"), "--out", str(vote_out)]) == 0
        for name in ("w1.csv", "w2.csv", "w3.csv", "ecdf.csv"):
            assert (run_out / name).read_bytes() == (vote_out / name).read_bytes()
        run_report = json.loads((run_out / "report.json").read_text())
        vote_report = json.loads((vote_out / "report.json").read_text())
        assert run_report["winners"] == vote_report["winners"]
        assert run_report["criteria"] == vote_report["criteria"]

    def test_csv_serialization_round_trips_exactly(self, workspace):
        tmp, config, data = workspace
        out = tmp / "rt"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        entries, rows, cols = read_matrix_csv(str(out / "accuracy_matrix.csv"))
        again = tmp / "again.csv"
        write_matrix_csv(str(again), entries, rows, cols)
        entries2, rows2, cols2 = read_matrix_csv(str(again))
        assert np.array_equal(entries, entries2)
        assert rows == rows2 and cols == cols2


class TestPlotEcdf:
    def test_all_ones_column_auc_label(self, tmp_path):
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(str(w3), np.ones((4, 1)), [f"r{i}" for i in range(4)], ["only"])
        svg = tmp_path / "plot.svg"
        assert main(["plot-ecdf", str(w3), "--out", str(svg)]) == 0
        content = svg.read_text()
        assert "AUC=0.000" in content

    def test_antisymmetric_columns_auc_sum_to_one(self, tmp_path):
        rng = np.random.default_rng(1)
        col = rng.uniform(0.0, 1.0, size=9)
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(str(w3), np.column_stack([col, 1.0 - col]), [f"r{i}" for i in range(9)], ["up", "down"])
        svg = tmp_path / "plot.svg"
        assert main(["plot-ecdf", str(w3), "--out", str(svg)]) == 0
        aucs = [float(v) for v in re.findall(r"AUC=([0-9.]+)", svg.read_text())]
        assert len(aucs) == 2
        assert sum(aucs) == pytest.approx(1.0, abs=2e-3)  # labels are 3-decimal rounded

    def test_case_study_scale_plot_has_six_curves(self, tmp_path):
        rng = np.random.default_rng(2)
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(
            str(w3),
            rng.uniform(0.0, 1.0, size=(36, 6)),
            [f"r{i}" for i in range(36)],
            [f"s{j}" for j in range(6)],
        )
        svg = tmp_path / "plot.svg"
        assert main(["plot-ecdf", str(w3), "--out", str(svg)]) == 0
        assert svg.read_text().count("<path") == 6

    def test_legend_keeps_markup_characters_of_strategy_names(self, tmp_path):
        # a name holding &, < or " is escaped in the SVG, so the file parses and the legend reads it back
        names = ["a&b", "<c>", 'x"y']
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(str(w3), np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]), ["r1", "r2"], names)
        svg = tmp_path / "p.svg"
        assert main(["plot-ecdf", str(w3), "--out", str(svg)]) == 0
        texts = [el.text for el in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert [text.rsplit(" (AUC=", 1)[0] for text in texts if " (AUC=" in text] == names

def loaded_by_cli_import(modules):
    """The given modules that a fresh `import predvote.cli` loads."""
    src = str(Path(predvote.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = f"import sys, predvote.cli; print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    # a serial run never uses the pool, so importing the CLI must not load multiprocessing
    assert loaded_by_cli_import(["multiprocessing", "concurrent.futures.process"]) == "[]"


def test_cli_import_leaves_the_svg_renderer_unloaded():
    # only plot-ecdf draws, so run and vote never load predvote.plots
    assert loaded_by_cli_import(["predvote.plots"]) == "[]"
