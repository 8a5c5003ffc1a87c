"""Monte Carlo orchestration: simulate, reduce, vote, predict.

Every (generator, iteration) cell owns a private random stream derived
from the master seed, and model fitting never consumes randomness, so runs
are bit-identical for a given (config, data) pair regardless of worker
count or scheduling. Strategy fit failures inside the loop are masked up
to a configurable ceiling instead of aborting the run.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import nullcontext
from functools import partial
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .accuracy import AccuracyMatrix, ErrorTensor, Measure, build_accuracy_matrix
from .dataset import ColumnSchema, StudyFrame
from .errors import ConfigError, DataError, FitError, SimulationError
from .generators import Generator, fit_kde
from .models import ModelSpec, fit, is_integer, is_real
from .prediction import Characteristic, PredictionStrategy, RefitPlan, eval_characteristics, plan_refit
from .voting import SelectionResult, VotingMatrix, elect

_M64 = (1 << 64) - 1
_B_MAX = 1 << 32  # stream id = g * _B_MAX + b stays unique for any b <= 2^32
_NAMED_PAIRS = 5  # (generator, strategy) pairs a failure-ceiling error lists


def _avalanche(z: int) -> int:
    """64-bit splitmix64 finalizer; bijective, so distinct inputs never collide."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def derive_stream(master_seed: int, g: int, b: int) -> np.random.Generator:
    """Independent random stream for 1-based generator index g, iteration b.

    Counter-based: the cell id g * 2^32 + b is mixed with the master seed
    through a 64-bit avalanche, so any single cell can be reproduced in
    isolation. The master seed lies in [0, 2^64), so no two seeds share streams;
    the seed and both indices must be integers (bool is not one).
    """
    if not (is_integer(master_seed) and is_integer(g) and is_integer(b)):
        raise TypeError(f"master seed and stream indices must be integers, got {(master_seed, g, b)!r}")
    if g < 1 or b < 1:
        raise ValueError("stream indices are 1-based")
    if b > _B_MAX:
        raise ValueError(f"iteration index exceeds {_B_MAX}")
    if not 0 <= master_seed <= _M64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    stream_id = int(g) * _B_MAX + int(b)
    mixed = _avalanche(_avalanche(int(master_seed)) ^ stream_id)
    return np.random.Generator(np.random.PCG64(mixed))


def _worker_count(workers: int | None) -> int:
    """The one worker-count rule: a positive integer, or one worker per CPU this process may use when None."""
    if workers is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not (is_integer(workers) and workers >= 1):
        raise ConfigError(f"workers: must be a positive integer or unset, got {workers!r}")
    return int(workers)


@dataclass(frozen=True)
class RunConfig:
    """The study, checked when it is built: everything a run needs besides the data and the worker count."""

    generators: tuple[ModelSpec, ...]
    strategies: tuple[PredictionStrategy, ...]
    characteristics: tuple[Characteristic, ...]
    measures: tuple[Measure, ...]
    iterations: int = 5000
    master_seed: int = 0
    failure_ceiling: float = 0.01
    kde_bandwidth: "str | float" = "silverman"
    schema: ColumnSchema | None = None

    def __post_init__(self):
        """Check every field, types included; store the lists as tuples and the numbers as Python int and float."""
        for key, least, what in (
            ("generators", 1, "one data-generation model"),
            ("strategies", 2, "two strategies"),
            ("characteristics", 1, "one characteristic"),
            ("measures", 1, "one accuracy measure"),
        ):
            object.__setattr__(self, key, tuple(getattr(self, key)))
            if len(getattr(self, key)) < least:
                raise ConfigError(f"{key}: at least {what} required")
        if not (is_integer(self.iterations) and 2 <= self.iterations <= _B_MAX):
            raise ConfigError(
                f"iterations: need an integer, at least 2 and at most {_B_MAX}, got {self.iterations!r}"
            )
        if not (is_integer(self.master_seed) and 0 <= self.master_seed <= _M64):
            raise ConfigError(f"master_seed: must be an integer in [0, 2^64), got {self.master_seed!r}")
        for key, attr in (("strategies", "name"), ("characteristics", "name"), ("measures", "label")):
            labels = [getattr(item, attr) for item in getattr(self, key)]
            repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
            if repeated is not None:
                raise ConfigError(f"{key}: {attr}s must be unique, {repeated!r} is repeated")
        if not (is_real(self.failure_ceiling) and 0.0 <= self.failure_ceiling < 1.0):
            raise ConfigError(f"failure_ceiling: must be a number in [0, 1), got {self.failure_ceiling!r}")
        bandwidth = self.kde_bandwidth
        if bandwidth != "silverman" and not (is_real(bandwidth) and math.isfinite(bandwidth) and bandwidth > 0):
            raise ConfigError(
                f"kde_bandwidth: must be 'silverman' or a finite positive number, got {bandwidth!r}"
            )
        for key, cast in (("iterations", int), ("master_seed", int), ("failure_ceiling", float)):
            object.__setattr__(self, key, cast(getattr(self, key)))


@dataclass
class RunOutput:
    accuracy_matrix: AccuracyMatrix
    w1: VotingMatrix
    w2: VotingMatrix
    w3: VotingMatrix
    selections: dict[str, SelectionResult]
    final_predictions: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def generator_label(index: int, spec: ModelSpec | Generator) -> str:
    return f"gen{index + 1}_{spec.family}"


def _fit_generators(config: RunConfig, frame: StudyFrame) -> list[Generator]:
    fitted = []
    for i, spec in enumerate(config.generators):
        label = generator_label(i, spec)
        try:
            model = fit(spec, frame.x_sample, frame.y_sample)
        except FitError as exc:
            raise ConfigError(f"generator {label!r} cannot be fitted on the sample data: {exc}") from exc
        for name, value in (model.error_summary or {}).items():  # the noise scale of a parametric generator
            if not math.isfinite(value):
                raise ConfigError(f"generator {label!r}: the {name.replace('_', ' ')} of its sample fit is not finite")
        if spec.is_parametric:
            fitted.append((label, model))
            continue
        # a nonparametric location is the row-wise prediction on x_full, whose first n rows are x_sample,
        # so it gives the sample residuals too; it raises no SimulationError
        location = model.predict(frame.x_full)
        residuals = frame.y_sample - location[: frame.n]
        if not np.all(np.isfinite(residuals)):  # a leaf or neighbour mean overflowed
            raise ConfigError(f"generator {label!r}: the residuals of its sample fit are not finite")
        try:
            kde = fit_kde(residuals, config.kde_bandwidth)
        except (DataError, ValueError) as exc:  # ValueError: a Silverman bandwidth that is not finite and positive
            raise ConfigError(f"generator {label!r}: residual KDE failed: {exc}") from exc
        fitted.append((label, Generator(spec.family, location, kde=kde)))
    # every fit and KDE is checked (ConfigError) before any parametric location is built (SimulationError)
    generators = []
    for label, made in fitted:
        if not isinstance(made, Generator):
            try:
                made = Generator.from_model(made, frame.x_full, None, frame.n)
            except SimulationError as exc:
                raise SimulationError(f"generator {label!r}: {exc}") from exc
        generators.append(made)
    return generators


@np.errstate(all="ignore")  # an overflow ends in a non-finite truth, checked below; set here for pool workers too
def _cell(
    frame: StudyFrame, generators: list[Generator], plans: list[RefitPlan],
    characteristics: tuple[Characteristic, ...], master_seed: int, g: int, b: int,
) -> tuple[np.ndarray, dict[int, str]]:
    """The (C x P) errors of iteration b of generator g (both 0-based), and {p: p's FitError message}.

    A non-finite characteristic of the simulated population is a
    SimulationError; a FitError of a refit plan leaves its errors at 0.
    """
    generator = generators[g]
    where = f"generator {generator_label(g, generator)!r}, iteration {b + 1}"
    try:
        y_gen = generator.draw(derive_stream(master_seed, g + 1, b + 1))
    except SimulationError as exc:
        raise SimulationError(f"{where}: {exc}") from exc
    truth = eval_characteristics(characteristics, y_gen)
    bad = np.flatnonzero(~np.isfinite(truth))
    if bad.size:
        name = characteristics[bad[0]].name
        raise SimulationError(f"{where}: characteristic {name!r} of the simulated population is not finite")
    y_s_gen = y_gen[: frame.n]
    errors = np.zeros((len(characteristics), len(plans)))
    reasons: dict[int, str] = {}
    for p, plan in enumerate(plans):
        try:
            errors[:, p] = plan.plug_in(frame, y_s_gen, characteristics) - truth
        except FitError as exc:
            reasons[p] = str(exc)
    return errors, reasons


def simulate_errors(config: RunConfig, frame: StudyFrame, workers: int | None = None) -> ErrorTensor:
    """Run the Monte Carlo loop and return the raw error tensor.

    The result is independent of workers (None: one process per usable CPU): every
    (g, b) cell is a pure function of (config, frame). What depends on the
    design alone (each Generator, with its location on x_full, and each
    strategy's refit plan) is built once here, not in every cell.
    """
    return _simulate(config, frame, _worker_count(workers))[0]


@np.errstate(all="ignore")  # the generator fits and refit plans, each checked as it is built
def _simulate(config: RunConfig, frame: StudyFrame, workers: int) -> tuple[ErrorTensor, list[RefitPlan], int]:
    """simulate_errors at a checked worker count, plus the refit plans its cells ran and the processes that ran them."""
    if frame.k < 1:
        raise DataError("run needs at least one out-of-sample unit")
    generators = _fit_generators(config, frame)
    plans = [plan_refit(strategy, frame) for strategy in config.strategies]
    cell = partial(_cell, frame, generators, plans, config.characteristics, config.master_seed)
    values = np.zeros((len(generators), config.iterations, len(config.characteristics), len(config.strategies)))
    mask = np.zeros((len(generators), config.iterations, len(config.strategies)), dtype=bool)

    order = list(itertools.product(range(len(generators)), range(config.iterations)))  # the (g, b) cells
    chunk = -(-len(order) // (4 * workers))
    workers = min(workers, -(-len(order) // chunk))  # never more processes than chunks
    if workers == 1:
        pool = nullcontext()
    else:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool:
        # both maps keep the (g, b) order; the pool pickles the bound run state once per chunk of cells
        results = map(cell, *zip(*order)) if workers == 1 else pool.map(cell, *zip(*order), chunksize=chunk)
        first_reason: dict[tuple[int, int], str] = {}  # (g, p) -> the first FitError message, in iteration order
        for (g, b), (errors, reasons) in zip(order, results):
            values[g, b] = errors
            for p, reason in reasons.items():
                mask[g, b, p] = True
                first_reason.setdefault((g, p), reason)

    failure_rate = mask.sum() / mask.size
    if failure_rate > config.failure_ceiling:
        share = mask.mean(axis=1)  # per (generator, strategy)
        worst = sorted(zip(*np.nonzero(share)), key=lambda gp: -share[gp])[:_NAMED_PAIRS]
        pairs = ", ".join(
            f"{generator_label(g, config.generators[g])} × {config.strategies[p].name} "
            f"({share[g, p]:.2%}: {first_reason[g, p]})"
            for g, p in worst
        )
        raise SimulationError(
            f"strategy fit failures hit {failure_rate:.2%} of cells, "
            f"above the ceiling of {config.failure_ceiling:.2%}; worst pairs: {pairs}"
        )
    return ErrorTensor(values=values, failure_mask=mask), plans, workers


def run(config: RunConfig, frame: StudyFrame, workers: int | None = None) -> RunOutput:
    """Full pipeline (workers as in simulate_errors): simulate, build the accuracy matrix, vote, predict.

    Final plug-in predictions on the real sample are computed for the union
    of the four winner sets, with the refit plans the cells ran.
    """
    started = time.perf_counter()
    tensor, plans, workers = _simulate(config, frame, _worker_count(workers))
    gen_labels = [generator_label(i, s) for i, s in enumerate(config.generators)]
    char_labels = [c.name for c in config.characteristics]
    strategy_names = [s.name for s in config.strategies]
    try:
        matrix = build_accuracy_matrix(tensor, config.measures, gen_labels, char_labels, strategy_names)
    except DataError as exc:
        raise SimulationError(str(exc)) from exc

    selections, voting_matrices = elect(matrix)

    final_predictions: dict[str, np.ndarray] = {}
    plan_by_name = {plan.strategy.name: plan for plan in plans}
    for result in selections.values():
        for name in result.winners:
            if name not in final_predictions:
                try:  # y_sample is finite (StudyFrame checks it), as plug_in_predict requires
                    final_predictions[name] = plan_by_name[name].plug_in(frame, frame.y_sample, config.characteristics)
                except FitError as exc:
                    raise SimulationError(
                        f"a winning strategy cannot be fitted on the real sample: strategy {name!r}: {exc}"
                    ) from exc

    metadata = {
        "master_seed": config.master_seed,
        "iterations": config.iterations,
        "workers": workers,
        "wall_time_seconds": time.perf_counter() - started,
        "n": frame.n,
        "k": frame.k,
        "q": frame.q,
        "generators": gen_labels,
        "strategies": strategy_names,
        "characteristics": char_labels,
        "measures": [m.label for m in config.measures],
        "effective_iterations": tensor.effective_iterations().tolist(),
        "failure_rate": float(tensor.failure_mask.sum() / tensor.failure_mask.size),
    }
    return RunOutput(
        accuracy_matrix=matrix,
        selections=selections,
        final_predictions=final_predictions,
        metadata=metadata,
        **voting_matrices,
    )


# --- configuration document parsing (JSON-compatible tree) ---


def _build(where: str, make, node):
    """make(**node) of a mapping node; a TypeError, ValueError or DataError becomes a ConfigError naming where."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: must be a mapping, got {node!r}")
    try:
        return make(**node)
    except (TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _strategy(name="", **model) -> PredictionStrategy:
    spec = ModelSpec(**model)
    return PredictionStrategy(spec.family if name == "" else name, spec)


def _covariate(name, kind) -> tuple:
    return name, kind


def _schema(covariates, **rest) -> ColumnSchema:
    if not isinstance(covariates, list):
        raise ValueError(f"covariates must be a list of entries, got {covariates!r}")
    for i, entry in enumerate(covariates):
        if not isinstance(entry, dict):
            raise ValueError(f"covariates[{i}] must be a mapping, got {entry!r}")
    return ColumnSchema(covariates=[_covariate(**c) for c in covariates], **rest)


_ENTRIES = {"generators": ModelSpec, "strategies": _strategy, "characteristics": Characteristic, "measures": Measure}


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed document; a field it leaves out keeps RunConfig's default."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown configuration field(s): {sorted(unknown)}")
    for required in (f.name for f in fields(RunConfig) if f.default is MISSING):
        if required not in doc:
            raise ConfigError(f"{required}: missing required field")

    values = dict(doc)
    for key, make in _ENTRIES.items():
        if not isinstance(doc[key], list):
            raise ConfigError(f"{key}: must be a list of entries, got {doc[key]!r}")
        values[key] = [_build(f"{key}[{i}]", make, node) for i, node in enumerate(doc[key])]
    if "schema" in doc:
        values["schema"] = _build("schema", _schema, doc["schema"])
    return RunConfig(**values)
