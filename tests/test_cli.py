import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predvote
import reference_fixture as ref
from conftest import overflow_refits_on
from predvote.cli import main
from predvote.dataset import load_csv, write_portfolio_csv
from predvote.engine import config_from_dict
from predvote.matrix_io import read_matrix_csv, write_matrix_csv

RUN_FILES = {"accuracy_matrix.csv", "w1.csv", "w2.csv", "w3.csv", "ecdf.csv", "report.json"}
SYSTEMS = {"fptp", "positional", "evaluative", "ecdf_auc"}
# SHA-256 of the SVG that plot-ecdf drew from the workspace run's ecdf.csv step file, when it still read one
WORKSPACE_PLOT_SHA256 = "0443c0f2ac00573d17661fbea910ed97cac5eaea7f8fe35a82cd43a6f610ffda"


def assert_tie_break_block(report):
    """The report names one tie-break choice per voting system, among that system's winners."""
    assert set(report["tie_break"]) == SYSTEMS
    for system, chosen in report["tie_break"].items():
        assert chosen in report["winners"][system]


def assert_step_file_refused(argv, capsys):
    assert main(argv) == 3
    assert "an ECDF step file (strategy,x,cdf), not a labeled matrix" in capsys.readouterr().err


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


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    write_portfolio_csv(str(data), 50, 10, 5)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(minimal_config()), encoding="utf-8")
    return tmp_path, config, data


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

    def test_plot_ecdf_draws_the_run_curves_from_w3_only(self, workspace, capsys):
        # a run writes no SVG; plot-ecdf draws, from the w3 matrix, the bytes it once drew from the step file
        tmp, config, data = workspace
        out = tmp / "out"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        svg = tmp / "w3.svg"
        assert main(["plot-ecdf", str(out / "w3.csv"), "--out", str(svg)]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == WORKSPACE_PLOT_SHA256
        capsys.readouterr()
        assert_step_file_refused(["plot-ecdf", str(out / "ecdf.csv"), "--out", str(tmp / "steps.svg")], capsys)
        assert not (tmp / "steps.svg").exists()
        for option in ("--svg", "--tie-break"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x"), option])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_unusable_out_exits_2_before_the_data_is_read(self, workspace, capsys):
        # the data path does not exist, so exit 2 shows that --out was checked first
        tmp, config, _ = workspace
        afile = tmp / "afile"
        afile.write_text("kept", encoding="utf-8")
        for out in (afile, afile / "sub"):
            assert main(["run", "--config", str(config), "--data", str(tmp / "nope.csv"), "--out", str(out)]) == 2
            assert f"cannot write --out {out}: {afile} exists and is not a directory" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "kept"

    def test_single_strategy_config_exits_2(self, workspace, capsys):
        tmp, config, data = workspace
        bad = minimal_config()
        bad["strategies"] = bad["strategies"][:1]
        config.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2
        assert "at least two strategies" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["scott", -1.0])
    def test_bad_kde_bandwidth_exits_2(self, workspace, capsys, bandwidth):
        tmp, config, data = workspace
        bad = minimal_config(generators=[{"family": "knn"}], kde_bandwidth=bandwidth)
        config.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2
        assert "kde_bandwidth" in capsys.readouterr().err

    def test_string_failure_ceiling_exits_2(self, workspace, capsys):
        tmp, config, data = workspace
        config.write_text(json.dumps(minimal_config(failure_ceiling="0.5")), encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2
        assert "failure_ceiling" in capsys.readouterr().err

    def test_non_list_generators_exits_2(self, workspace, capsys):
        tmp, config, data = workspace
        config.write_text(json.dumps(minimal_config(generators=5)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2
        assert "generators: must be a list of entries" in capsys.readouterr().err

    def test_duplicate_characteristic_name_exits_2(self, workspace, capsys):
        tmp, config, data = workspace
        doc = minimal_config(characteristics=[{"kind": "total"}, {"kind": "mean", "name": "total"}])
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 2
        assert "characteristics: names must be unique, 'total' is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_exits_2(self, workspace, capsys):
        # --workers is checked before any data is read
        tmp, config, _ = workspace
        assert main([
            "run", "--config", str(config), "--data", str(tmp / "nope.csv"),
            "--out", str(tmp / "x"), "--workers", "0",
        ]) == 2
        assert "workers: must be a positive integer or unset, got 0" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_parallelism_field_exits_2(self, workspace, capsys):
        # the worker count is --workers alone; the document holds the study
        tmp, config, data = workspace
        config.write_text(json.dumps(minimal_config(parallelism=2)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2
        assert "unknown configuration field(s): ['parallelism']" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize(
        "key,entry,message",
        [
            ("strategies", {"name": 5, "family": "ols_normal"}, "strategies[0]: strategy needs a non-empty name string"),
            ("characteristics", {"kind": "total", "name": 7}, "characteristics[0]: characteristic name must be a string"),
            # only a missing or empty name takes the family's; these once ran as 'ols_normal'
            *(
                (
                    "strategies",
                    {"name": name, "family": "ols_normal"},
                    f"strategies[0]: strategy needs a non-empty name string, got {name!r}",
                )
                for name in (None, False, 0, [])
            ),
        ],
    )
    def test_non_string_name_exits_2(self, workspace, capsys, key, entry, message):
        # a non-string name would reach json.dumps(sort_keys=True) only after the whole simulation
        tmp, config, _ = workspace
        doc = minimal_config(characteristics=[{"kind": "median"}])
        doc[key] = [entry, *doc[key]]
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(tmp / "nope.csv"), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,entry,misspelled",
        [
            ("strategies", {"name": "b", "family": "knn", "hyperparms": {"k_neighbors": 50}}, "hyperparms"),
            ("generators", {"family": "regression_tree", "hyperparam": {"max_depth": 3}}, "hyperparam"),
            ("characteristics", {"kind": "quantile", "p": 0.9, "nmae": "x"}, "nmae"),
            ("measures", {"kind": "rmse", "foo": 1}, "foo"),
        ],
    )
    def test_misspelled_entry_key_exits_2_before_the_data_is_read(self, workspace, capsys, key, entry, misspelled):
        tmp, config, _ = workspace
        doc = minimal_config()
        doc[key] = [entry, *doc[key]]
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(tmp / "nope.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}[0]: ")
        assert f"unexpected keyword argument '{misspelled}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "once,twice,key",
        [
            ('"iterations": 10', '"iterations": 10, "iterations": 5000', "iterations"),
            ('"hyperparams": {"k_neighbors": 5}', '"hyperparams": {"k_neighbors": 5}, "hyperparams": {}', "hyperparams"),
            ('"kind": "categorical"}', '"kind": "categorical", "kind": "numeric"}', "kind"),
        ],
        ids=["top-level", "entry", "covariate"],
    )
    def test_repeated_key_exits_2(self, workspace, capsys, once, twice, key):
        # json.loads keeps the last copy of a repeated key without a word
        tmp, config, data = workspace
        text = json.dumps(minimal_config())
        assert once in text
        config.write_text(text.replace(once, twice, 1), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: configuration key {key!r} is repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, workspace, capsys, seed):
        tmp, config, data = workspace
        config.write_text(json.dumps(minimal_config(master_seed=seed)), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 2
        assert f"master_seed: must be an integer in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_option_is_unrecognized(self, workspace, capsys):
        # the configuration's master_seed is the one source of the seed
        tmp, config, data = workspace
        out = tmp / "x"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), "--data", str(data), "--out", str(out), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda schema: schema.update(response=5),
            lambda schema: schema.update(sample_flag=5),
            lambda schema: schema["covariates"][0].update(name=5),
            lambda schema: schema["covariates"][0].update(kind=5),
        ],
        ids=["response", "sample_flag", "covariate-name", "covariate-kind"],
    )
    def test_non_string_schema_name_exits_2_before_the_data_is_read(self, workspace, capsys, edit):
        # a numeric covariate name once read a CSV column called '5', and a numeric response exited 3 after the read
        tmp, config, _ = workspace
        doc = minimal_config()
        edit(doc["schema"])
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(tmp / "nope.csv"), "--out", str(out)]) == 2
        assert "error: schema: schema names and kinds must be strings, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_measure_label_exits_2(self, workspace, capsys):
        tmp, config, data = workspace
        config.write_text(json.dumps(minimal_config(measures=[{"kind": "rmse"}, {"kind": "rmse"}])), encoding="utf-8")
        out = tmp / "x"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 2
        assert "measures: labels must be unique, 'rmse' is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_marks_are_read(self, workspace):
        # Excel's "CSV UTF-8" export starts the file with a BOM
        tmp, config, data = workspace
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "plain")]) == 0
        bom_config, bom_data = tmp / "bom_config.json", tmp / "bom_data.csv"
        bom_config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        bom_data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        assert main(["run", "--config", str(bom_config), "--data", str(bom_data), "--out", str(tmp / "bom")]) == 0
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
        src = str(Path(predvote.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        errors = []
        for workers in ("1", "2"):
            done = subprocess.run(
                [
                    sys.executable, "-c", "import sys; from predvote.cli import main; sys.exit(main(sys.argv[1:]))",
                    "run", "--config", "config.json", "--data", "data.csv", "--out", "out", "--workers", workers,
                ],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 4, done.stderr
            errors.append(done.stderr)
        assert errors[0] == errors[1] == (
            "error: generator 'gen1_lognormal', iteration 1: "
            "characteristic 'total' of the simulated population is not finite\n"
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_draw_exits_4_naming_its_generator_and_iteration(self, tmp_path, capsys):
        # the response spans 600 decades, so the ols_normal noise sd overflows and its first draw is not finite
        y = np.geomspace(1e-300, 1e300, 40)
        sample = [f"{v!r},{'ab'[i % 2]},1" for i, v in enumerate(y.tolist())]
        (tmp_path / "data.csv").write_text("\n".join(["y,c,insample", *sample, ",a,0", ",b,0"]) + "\n", encoding="utf-8")
        doc = minimal_config(
            schema={"response": "y", "sample_flag": "insample", "covariates": [{"name": "c", "kind": "categorical"}]},
            generators=[{"family": "ols_normal"}, {"family": "lognormal"}],
            iterations=3,
        )
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(tmp_path / "config.json"), "--data", str(tmp_path / "data.csv")]
        assert main([*argv, "--out", str(tmp_path / "out"), "--workers", "1"]) == 4
        assert capsys.readouterr().err == (
            "error: generator 'gen1_ols_normal', iteration 1: generated population contains non-finite values\n"
        )

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
            "error: generator 'gen2_gamma_glm_log_link': gamma generation: non-positive fitted mean at row 40\n"
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

    def test_missing_config_exits_2(self, workspace):
        tmp, _, data = workspace
        assert main(["run", "--config", str(tmp / "nope.json"), "--data", str(data), "--out", str(tmp / "x")]) == 2

    def test_invalid_json_exits_2(self, workspace):
        tmp, config, data = workspace
        config.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(tmp / "x")]) == 2

    def test_missing_data_exits_3(self, workspace):
        tmp, config, _ = workspace
        assert main(["run", "--config", str(config), "--data", str(tmp / "nope.csv"), "--out", str(tmp / "x")]) == 3

    def test_data_schema_mismatch_exits_3(self, workspace, tmp_path):
        tmp, config, _ = workspace
        bad_data = tmp_path / "bad.csv"
        bad_data.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--data", str(bad_data), "--out", str(tmp / "x")]) == 3

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

    def test_worker_count_byte_identical(self, workspace):
        tmp, config, data = workspace
        for out, workers in ((tmp / "w1_", "1"), (tmp / "w8_", "8")):
            assert main([
                "run", "--config", str(config), "--data", str(data),
                "--out", str(out), "--workers", workers,
            ]) == 0
        assert (tmp / "w1_" / "accuracy_matrix.csv").read_bytes() == (tmp / "w8_" / "accuracy_matrix.csv").read_bytes()

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

    def test_negative_entry_exits_3(self, tmp_path, capsys):
        matrix_path = tmp_path / "neg.csv"
        write_matrix_csv(str(matrix_path), np.array([[1.0, -2.0]]), ["r1"], ["a", "b"])
        assert main(["vote", str(matrix_path), "--out", str(tmp_path / "out")]) == 3
        assert "nonnegative" in capsys.readouterr().err

    def test_negative_entry_error_names_the_file(self, tmp_path, capsys):
        matrix_path = tmp_path / "neg.csv"
        matrix_path.write_text("voter,a,b\nr1,-0.1,0.2\nr2,0.3,0.1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {matrix_path}: accuracy matrix entries must be nonnegative\n"
        assert not out.exists()

    def test_malformed_matrix_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("voter,a,b\nr1,1.0\n", encoding="utf-8")
        assert main(["vote", str(bad), "--out", str(tmp_path / "out")]) == 3
        bad.write_text("voter,a,b\nr1,1.0,x\n", encoding="utf-8")
        assert main(["vote", str(bad), "--out", str(tmp_path / "out")]) == 3

    def test_repeated_column_label_exits_3(self, tmp_path, capsys):
        # keyed by name, the two 'a' columns (1 and 2 first-place votes) would merge silently
        matrix_path = tmp_path / "dup.csv"
        matrix_path.write_text("voter,a,a,b\nr1,0.1,0.2,0.3\nr2,0.3,0.2,0.1\nr3,0.2,0.1,0.3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 3
        assert "column label 'a' is repeated" in capsys.readouterr().err
        assert not out.exists()

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

    def test_ecdf_step_file_exits_3(self, workspace, capsys):
        # read as a 2-column matrix, the run's step file would elect a strategy named 'cdf'
        tmp, config, data = workspace
        run_out = tmp / "run_out"
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(run_out)]) == 0
        capsys.readouterr()
        out = tmp / "vote_out"
        assert_step_file_refused(["vote", str(run_out / "ecdf.csv"), "--out", str(out)], capsys)
        assert not out.exists()

    def test_missing_matrix_exits_3(self, tmp_path):
        assert main(["vote", str(tmp_path / "none.csv"), "--out", str(tmp_path / "out")]) == 3

    def test_unusable_out_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "a.csv"
        self.write_reference_matrix(str(matrix_path))
        afile = tmp_path / "afile"
        afile.write_text("kept", encoding="utf-8")
        assert main(["vote", str(matrix_path), "--out", str(afile)]) == 2
        assert f"cannot write --out {afile}: {afile} exists and is not a directory" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "kept"
        # an output that cannot be written once the directory exists is the same error
        out = tmp_path / "out"
        (out / "w1.csv").mkdir(parents=True)
        assert main(["vote", str(matrix_path), "--out", str(out)]) == 2
        assert f"cannot write --out {out}: " in capsys.readouterr().err


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

    def test_out_of_range_entries_exit_3(self, tmp_path):
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(str(w3), np.array([[0.5, 1.5]]), ["r1"], ["a", "b"])
        assert main(["plot-ecdf", str(w3), "--out", str(tmp_path / "p.svg")]) == 3

    def test_repeated_column_label_exits_3(self, tmp_path, capsys):
        matrix_path = tmp_path / "w3.csv"
        write_matrix_csv(str(matrix_path), np.array([[0.0, 1.0, 0.5]]), ["r1"], ["a", "b", "a"])
        svg = tmp_path / "p.svg"
        assert main(["plot-ecdf", str(matrix_path), "--out", str(svg)]) == 3
        assert "column label 'a' is repeated" in capsys.readouterr().err
        assert not svg.exists()

    def test_unusable_out_exits_2(self, tmp_path, capsys):
        w3 = tmp_path / "w3.csv"
        write_matrix_csv(str(w3), np.array([[0.0, 1.0]]), ["r1"], ["a", "b"])
        afile = tmp_path / "afile"
        afile.write_text("kept", encoding="utf-8")
        for svg in (afile / "x.svg", tmp_path):
            assert main(["plot-ecdf", str(w3), "--out", str(svg)]) == 2
            assert f"cannot write --out {svg}: " in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "kept"


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
