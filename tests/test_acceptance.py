"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import json
import time

import numpy as np

import reference_fixture as ref
from conftest import make_positive_frame, write_frame_csv
from predvote.accuracy import Measure, qape
from predvote.cli import main
from predvote.dataset import StudyFrame
from predvote.engine import RunConfig, run
from predvote.matrix_io import read_matrix_csv, write_matrix_csv
from predvote.models import ModelSpec, fit
from predvote.prediction import Characteristic, PredictionStrategy
from predvote.voting import (
    TRANSFORM_SCALED,
    VotingMatrix,
    ecdf_auc_vote,
    evaluative_vote,
    stochastic_dominance,
)


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rectangle_auc(values: np.ndarray) -> float:
    """Independent geometric integration of the ECDF step function on [0, 1]."""
    xs, counts = np.unique(values, return_counts=True)
    levels = np.cumsum(counts) / values.size
    bounds = np.append(xs, 1.0)
    return float(np.sum(levels * np.diff(bounds)))


def scaled(entries: np.ndarray) -> VotingMatrix:
    entries = np.atleast_2d(entries)
    return VotingMatrix(
        entries=entries,
        transform=TRANSFORM_SCALED,
        row_labels=[f"r{i}" for i in range(entries.shape[0])],
        col_labels=[f"s{j}" for j in range(entries.shape[1])],
    )


def test_criterion_1_row_transform_fidelity(tmp_path):
    matrix_path = tmp_path / "reference.csv"
    write_matrix_csv(str(matrix_path), ref.ACCURACY_ROWS, ref.ROW_LABELS, ref.STRATEGIES)
    out = tmp_path / "vote_out"
    started = time.perf_counter()
    code = main(["vote", str(matrix_path), "--out", str(out)])
    elapsed = time.perf_counter() - started
    w1, _, _ = read_matrix_csv(str(out / "w1.csv"))
    w2, _, _ = read_matrix_csv(str(out / "w2.csv"))
    w3, _, _ = read_matrix_csv(str(out / "w3.csv"))
    w3_dev = float(np.max(np.abs(w3 - ref.W3_EXPECTED)))
    ok = (
        code == 0
        and np.array_equal(w1, ref.W1_EXPECTED)
        and np.array_equal(w2, ref.W2_EXPECTED)
        and w3_dev <= ref.W3_TOLERANCE
        and elapsed < 1.0
    )
    report_line(
        1,
        ok,
        f"six reference rows reproduce W1/W2 exactly and W3 within {ref.W3_TOLERANCE} "
        f"(max dev {w3_dev:.2e}) in {elapsed:.3f}s (one reference rank row asserted in its "
        f"internally consistent form, see reference_fixture)",
    )


def test_criterion_2_dimension_fidelity(tmp_path):
    frame = make_positive_frame(n=60, k=10, seed=17, noise=0.08)
    data_path = tmp_path / "data.csv"
    schema = write_frame_csv(frame, str(data_path))
    families = [
        {"family": "ols_normal"},
        {"family": "lognormal"},
        {"family": "gamma_glm_log_link"},
        {"family": "gamma_glm_log_link", "hyperparams": {"max_iter": 200, "tol": 1e-10}},
        {"family": "regression_tree", "hyperparams": {"max_depth": 3, "min_leaf": 4}},
        {"family": "knn", "hyperparams": {"k_neighbors": 5}},
    ]
    config = {
        "schema": {
            "response": schema.response,
            "sample_flag": schema.sample_flag,
            "covariates": [{"name": n, "kind": k} for n, k in schema.covariates],
        },
        "generators": families,
        "strategies": [dict(node, name=f"strategy{i + 1}") for i, node in enumerate(families)],
        "characteristics": [{"kind": "total"}, {"kind": "median"}],
        "measures": [{"kind": "rmse"}, {"kind": "qape", "p": 0.5}, {"kind": "qape", "p": 0.95}],
        "iterations": 8,
        "master_seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--data", str(data_path), "--out", str(out)])
    entries, row_labels, col_labels = read_matrix_csv(str(out / "accuracy_matrix.csv"))
    ok = code == 0 and entries.shape == (36, 6) and len(row_labels) == 36 and len(col_labels) == 6
    report_line(2, ok, f"G=6, C=2, M=3, P=6 run yields a {entries.shape[0]}x{entries.shape[1]} accuracy matrix")


def test_criterion_3_ecdf_auc_identity():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        scores = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 40)), int(rng.integers(2, 7))))
        aucs = ecdf_auc_vote(scaled(scores)).criterion_values
        for j in range(scores.shape[1]):
            worst = max(worst, abs(aucs[j] - rectangle_auc(scores[:, j])))
    ones = ecdf_auc_vote(scaled(np.ones((8, 1)))).criterion_values[0]
    zeros = ecdf_auc_vote(scaled(np.zeros((8, 1)))).criterion_values[0]
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and ones == 0.0 and zeros == 1.0 and elapsed < 5.0
    report_line(
        3,
        ok,
        f"1000 random scaled matrices: step integration matches 1 - mean "
        f"(max dev {worst:.2e}); boundary columns give AUC {ones:g} and {zeros:g}; {elapsed:.2f}s",
    )


def test_criterion_4_closed_form_rmse_oracle():
    rng = np.random.default_rng(404)
    n = 30
    x = rng.uniform(0.0, 2.0, size=(n + 1, 1))
    y = 1.0 + 2.0 * x[:n, 0] + 0.5 * rng.standard_normal(n)
    frame = StudyFrame(x_sample=x[:n], y_sample=y, x_out=x[n:], column_names=["x"])

    config = RunConfig(
        generators=[ModelSpec("ols_normal")],
        strategies=[
            PredictionStrategy("ols", ModelSpec("ols_normal")),
            PredictionStrategy("null", ModelSpec("ols_normal", {"intercept_only": True})),
        ],
        characteristics=[Characteristic("total")],
        measures=[Measure("rmse")],
        iterations=20000,
        master_seed=99,
    )
    started = time.perf_counter()
    output = run(config, frame, workers=2)
    elapsed = time.perf_counter() - started
    mc_rmse = float(output.accuracy_matrix.entries[0, 0])

    # analytic prediction-error sd of the refitted regression at x0:
    # sigma_hat * sqrt(1 + x0' (X'X)^-1 x0), intercept included
    generator_fit = fit(ModelSpec("ols_normal"), frame.x_sample, frame.y_sample)
    sigma = float(generator_fit.error_summary["residual_variance"]) ** 0.5
    design = np.column_stack([np.ones(n), frame.x_sample])
    x0 = np.array([1.0, frame.x_out[0, 0]])
    analytic = sigma * float(np.sqrt(1.0 + x0 @ np.linalg.inv(design.T @ design) @ x0))

    rel = abs(mc_rmse - analytic) / analytic
    ok = rel < 0.03 and elapsed < 30.0
    report_line(
        4,
        ok,
        f"B=20000 Monte Carlo RMSE {mc_rmse:.4f} vs analytic {analytic:.4f} "
        f"(rel dev {rel:.3%}) in {elapsed:.1f}s",
    )


def test_criterion_5_qape_normal_oracle():
    rng = np.random.default_rng(505)
    sigma = 3.0
    errors = rng.normal(0.0, sigma, size=20000)
    q50 = qape(errors, 0.5)
    q95 = qape(errors, 0.95)
    dev50 = abs(q50 - 0.6745 * sigma) / (0.6745 * sigma)
    dev95 = abs(q95 - 1.96 * sigma) / (1.96 * sigma)
    ok = dev50 < 0.03 and dev95 < 0.03
    report_line(
        5,
        ok,
        f"qape(0.5)={q50:.4f} vs 0.6745*sigma={0.6745 * sigma:.4f} ({dev50:.3%}); "
        f"qape(0.95)={q95:.4f} vs 1.96*sigma={1.96 * sigma:.4f} ({dev95:.3%})",
    )


def test_criterion_6_worker_determinism(tmp_path):
    frame = make_positive_frame(n=50, k=10, seed=66, noise=0.2)
    data_path = tmp_path / "data.csv"
    schema = write_frame_csv(frame, str(data_path))
    config = {
        "schema": {
            "response": schema.response,
            "sample_flag": schema.sample_flag,
            "covariates": [{"name": n, "kind": k} for n, k in schema.covariates],
        },
        "generators": [
            {"family": "ols_normal"},
            {"family": "regression_tree", "hyperparams": {"max_depth": 3, "min_leaf": 4}},
        ],
        "strategies": [
            {"name": "ols", "family": "ols_normal"},
            {"name": "tree", "family": "regression_tree", "hyperparams": {"max_depth": 3, "min_leaf": 4}},
            {"name": "knn", "family": "knn", "hyperparams": {"k_neighbors": 6}},
        ],
        "characteristics": [{"kind": "total"}, {"kind": "median"}],
        "measures": [{"kind": "rmse"}, {"kind": "qape", "p": 0.5}],
        "iterations": 40,
        "master_seed": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    codes = [
        main(["run", "--config", str(config_path), "--data", str(data_path),
              "--out", str(tmp_path / f"out{w}"), "--workers", str(w)])
        for w in (1, 8)
    ]
    bytes1 = (tmp_path / "out1" / "accuracy_matrix.csv").read_bytes()
    bytes8 = (tmp_path / "out8" / "accuracy_matrix.csv").read_bytes()
    ok = codes == [0, 0] and bytes1 == bytes8
    report_line(6, ok, f"1-worker and 8-worker accuracy_matrix.csv byte-identical ({len(bytes1)} bytes)")


def test_criterion_7_dominance_implication():
    rng = np.random.default_rng(707)
    fsd_pairs = 0
    counterexamples = 0
    for _ in range(500):
        s = int(rng.integers(4, 16))
        p = int(rng.integers(3, 6))
        scores = rng.uniform(0.0, 1.0, size=(s, p))
        if rng.random() < 0.5:  # engineer a likely-dominating column
            j = int(rng.integers(0, p - 1))
            scores[:, j] = np.minimum(scores[:, j + 1] + rng.uniform(0.05, 0.35), 1.0)
        w3 = scaled(scores)
        fsd = stochastic_dominance(w3, order=1)
        aucs = ecdf_auc_vote(w3).criterion_values
        medians = evaluative_vote(w3).criterion_values
        for i in range(p):
            for j in range(p):
                if fsd[i, j]:
                    fsd_pairs += 1
                    if not (aucs[i] < aucs[j] and medians[i] >= medians[j]):
                        counterexamples += 1
    ok = counterexamples == 0 and fsd_pairs > 0
    report_line(
        7,
        ok,
        f"{fsd_pairs} first-order-dominant pairs over 500 matrices; "
        f"{counterexamples} violations of the AUC/median implication",
    )


def test_criterion_8_end_to_end_selection_sanity():
    x = np.arange(1.0, 16.0).reshape(-1, 1)
    frame = StudyFrame(
        x_sample=x[:12], y_sample=2.0 + 3.0 * x[:12, 0], x_out=x[12:], column_names=["x"]
    )
    config = RunConfig(
        generators=[ModelSpec("ols_normal")],
        strategies=[
            PredictionStrategy("ols", ModelSpec("ols_normal")),
            PredictionStrategy("intercept_only", ModelSpec("ols_normal", {"intercept_only": True})),
        ],
        characteristics=[Characteristic("total")],
        measures=[Measure("rmse")],
        iterations=50,
        master_seed=8,
    )
    output = run(config, frame, workers=1)
    winners = {system: result.winners for system, result in output.selections.items()}
    ok = all(w == ("ols",) for w in winners.values()) and len(winners) == 4
    report_line(8, ok, f"noiseless linear data: all four systems elect 'ols' ({winners})")


def test_criterion_9_report_format_fixture(tmp_path):
    # a full-scale selection outcome on confidential industry data cannot be
    # reproduced here; this fixture reproduces the report's four-system
    # criterion layout and the positional co-winner tie behaviour on
    # synthetic data
    rows = []
    for i in range(36):
        # strategies 1 and 2 alternate at ranks 6 and 5 -> equal medians
        first_two = [1.0, 2.0] if i % 2 == 0 else [2.0, 1.0]
        rows.append(first_two + [5.0 + 0.1 * j + 0.01 * i for j in range(4)])
    matrix = np.array(rows)
    labels = [f"gen{g + 1}|{char}|{m}" for m in ("rmse", "qape0.5", "qape0.95") for char in ("total", "median") for g in range(6)]
    names = [f"strategy{j + 1}" for j in range(6)]
    matrix_path = tmp_path / "fixture.csv"
    write_matrix_csv(str(matrix_path), matrix, labels, names)
    out = tmp_path / "out"
    code = main(["vote", str(matrix_path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())

    systems = ["fptp", "positional", "evaluative", "ecdf_auc"]
    layout_ok = all(
        set(report["criteria"][sys_name]) == set(names) for sys_name in systems
    ) and set(report["criteria"]) == set(systems)
    cowinners = report["winners"]["positional"]
    tie_break_ok = report["tie_break"]["positional"] in cowinners
    ok = code == 0 and layout_ok and sorted(cowinners) == ["strategy1", "strategy2"] and tie_break_ok
    report_line(
        9,
        ok,
        f"four-system criterion table complete; positional co-winners {cowinners} "
        f"surfaced in full next to the recorded tie-break ({report['tie_break']['positional']})",
    )
