"""Self-tests of the benchmark: the gate, input determinism, spans and the replica.

Run from the repository root: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gate import RunResult, compare, compare_workers  # noqa: E402
from predvote.dataset import synthesize_portfolio  # noqa: E402
from predvote.engine import config_from_dict, simulate_errors  # noqa: E402
from replica import replicate  # noqa: E402
from run import quantile  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

WINNERS = {"fptp": ["a"], "positional": ["a"], "evaluative": ["a", "b"], "ecdf_auc": ["b"]}


def result(entries, winners=WINNERS, raw=b"raw") -> RunResult:
    entries = np.asarray(entries, dtype=float)
    rows = [f"r{i}" for i in range(entries.shape[0])]
    return RunResult(entries, rows, ["a", "b"], dict(winners), 0, raw)


@pytest.fixture
def expected() -> RunResult:
    return result([[1.5, 2.25], [1e5, 3e-3], [7.0, 7.0]])


def test_gate_accepts_identical_and_within_tolerance(expected):
    assert compare(result(expected.entries), expected) == []
    assert compare(result(expected.entries * (1 + 1e-10)), expected) == []


def test_gate_rejects_one_entry_perturbed_by_1e_6_relative(expected):
    perturbed = expected.entries.copy()
    perturbed[1, 1] *= 1 + 1e-6
    assert any("matrix differs" in p for p in compare(result(perturbed), expected))


def test_gate_rejects_a_changed_winner_set(expected):
    changed = dict(WINNERS, ecdf_auc=["a"])
    assert any("winner sets differ" in p for p in compare(result(expected.entries, changed), expected))


def test_gate_rejects_relabelled_matrix(expected):
    relabelled = result(expected.entries)
    relabelled.col_labels = ["b", "a"]
    assert compare(relabelled, expected) == ["matrix labels differ"]


def test_gate_rejects_workers_mismatch(expected):
    one = result(expected.entries, raw=b"voter,a,b\nr0,1.5,2.25\n")
    assert compare_workers(one, result(expected.entries, raw=one.raw_matrix)) == []
    two = result(expected.entries, raw=b"voter,a,b\nr0,1.5,2.2500000000000004\n")
    assert compare_workers(one, two) == ["workers=1 and workers=2 accuracy matrices are not bit-identical"]
    assert compare_workers(one, result(expected.entries, dict(WINNERS, fptp=["b"]), one.raw_matrix)) == [
        "workers=1 and workers=2 winner sets differ"
    ]


def test_reference_round_trips_through_json(expected):
    again = RunResult.from_json(expected.to_json())
    assert np.array_equal(again.entries, expected.entries)
    assert compare(again, expected) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    small = Workload(name, workload.why, 40, 30, 2, workload.generators, workload.strategies)
    first = [p.read_bytes() for p in write_inputs(small, 7, tmp_path / "a")]
    again = [p.read_bytes() for p in write_inputs(small, 7, tmp_path / "b")]
    other = [p.read_bytes() for p in write_inputs(small, 8, tmp_path / "c")]
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("engine.simulate"):
        for _ in range(3):
            with tracer.span("engine.cell"):
                with tracer.span("models.fit", "knn"):
                    sum(range(2000))
                with tracer.span("prediction.truth"):
                    sum(range(1000))
    layers = tracer.self_times(0)
    assert set(layers) == {"engine", "models", "prediction"}
    assert sum(layers.values()) == pytest.approx(tracer.durations("engine.simulate")[0], rel=1e-9)
    assert len(tracer.durations("models.fit", "knn")) == 3
    assert tracer.durations("models.fit", "ols_normal") == []


def test_quantile_is_the_inf_type_order_statistic():
    values = [float(v) for v in range(10, 0, -1)]
    assert quantile(values, 0.5) == 5.0
    assert quantile(values, 0.9) == 9.0
    assert quantile([3.0], 0.9) == 3.0


def test_replica_reproduces_simulate_errors_bit_for_bit():
    doc = WORKLOADS["zoo"].config(3)
    doc["iterations"] = 3
    # residual-KDE draws under a tree go non-positive, so the positive families fail
    # on some cells: the failure mask is replicated too
    doc["generators"].append({"family": "regression_tree", "hyperparams": {"max_depth": 3}})
    doc["failure_ceiling"] = 0.5
    config = config_from_dict(doc)
    frame = synthesize_portfolio(n=80, k=60, seed=3)
    engine = simulate_errors(config, frame, workers=1)
    traced = Tracer()
    for tracer in (NullTracer(), traced):
        tensor = replicate(config, frame, tracer)
        assert np.array_equal(tensor.values, engine.values)
        assert np.array_equal(tensor.failure_mask, engine.failure_mask)
    assert engine.failure_mask.any()
    assert len(traced.durations("engine.cell")) == 3 * 3
    assert len(traced.durations("models.fit")) == 3 * 3 * len(config.strategies)
