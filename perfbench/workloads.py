"""Workload definitions: a run configuration plus a synthetic portfolio per seed.

Every workload runs the paper's characteristic and measure set (total,
median and q0.95; rmse, qape0.5 and qape0.95) on data from
``predvote.dataset.write_portfolio_csv``. The workload seed is both the
data seed and the run's master seed, so one seed fixes every input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

_SCHEMA = {
    "response": "claim_amount",
    "sample_flag": "insample",
    "covariates": [
        {"name": name, "kind": "categorical"}
        for name in ("gender", "district", "payment", "engine", "age_group")
    ],
}
_CHARACTERISTICS = [{"kind": "total"}, {"kind": "median"}, {"kind": "quantile", "p": 0.95}]
_MEASURES = [{"kind": "rmse"}, {"kind": "qape", "p": 0.5}, {"kind": "qape", "p": 0.95}]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    k: int
    iterations: int
    generators: tuple[dict, ...]
    strategies: tuple[dict, ...]

    def config(self, seed: int) -> dict:
        """The JSON run configuration the CLI receives for this seed."""
        return {
            "schema": _SCHEMA,
            "generators": [dict(g) for g in self.generators],
            "strategies": [dict(s) for s in self.strategies],
            "characteristics": _CHARACTERISTICS,
            "measures": _MEASURES,
            "iterations": self.iterations,
            "master_seed": seed,
        }

    @property
    def refits_per_run(self) -> int:
        return len(self.generators) * self.iterations * len(self.strategies)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="zoo",
            why="all five strategy families: kNN and tree refits dominate, almost no parametric solver work",
            n=500,
            k=2000,
            iterations=3,
            generators=({"family": "lognormal"}, {"family": "gamma_glm_log_link"}),
            strategies=(
                {"name": "ols_normal", "family": "ols_normal"},
                {"name": "lognormal", "family": "lognormal"},
                {"name": "gamma_glm_log_link", "family": "gamma_glm_log_link"},
                {"name": "regression_tree", "family": "regression_tree"},
                {"name": "knn", "family": "knn"},
            ),
        ),
        Workload(
            name="param",
            why="many cheap parametric cells at n=2000, k=8000: solver, sort and per-task engine overhead show",
            n=2000,
            k=8000,
            iterations=40,
            generators=({"family": "lognormal"}, {"family": "gamma_glm_log_link"}),
            strategies=(
                {"name": "ols_normal", "family": "ols_normal"},
                {"name": "lognormal", "family": "lognormal"},
                {"name": "gamma_glm_log_link", "family": "gamma_glm_log_link"},
                {"name": "lognormal_null", "family": "lognormal", "hyperparams": {"intercept_only": True}},
            ),
        ),
        Workload(
            name="kde",
            why="residual-KDE generators (tree, kNN): the per-draw generator mean dominates, refits are small",
            n=500,
            k=2000,
            iterations=6,
            generators=({"family": "regression_tree"}, {"family": "knn"}),
            strategies=(
                {"name": "ols_normal", "family": "ols_normal"},
                {"name": "ols_null", "family": "ols_normal", "hyperparams": {"intercept_only": True}},
                {"name": "tree_d3", "family": "regression_tree", "hyperparams": {"max_depth": 3}},
            ),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the workload's config and data CSV for this seed; return both paths."""
    from predvote.dataset import write_portfolio_csv

    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / "config.json"
    data_path = directory / "data.csv"
    config_path.write_text(json.dumps(workload.config(seed), indent=2, sort_keys=True), encoding="utf-8")
    write_portfolio_csv(str(data_path), workload.n, workload.k, seed)
    return config_path, data_path


def config_hash(workload: Workload, seed: int) -> str:
    doc = json.dumps(workload.config(seed), sort_keys=True).encode("utf-8")
    return hashlib.sha256(doc).hexdigest()[:16]
