"""The Monte Carlo cell loop, rebuilt from outside through predvote's public API.

``replicate`` walks the same (generator, iteration) cells as
``engine.simulate_errors``: derive_stream -> gen_parametric or
gen_nonparametric -> models.fit / predict -> eval_characteristic. It
records one span per public call when given a Tracer, and returns the
error tensor, which must equal the engine's bit for bit.
"""

from __future__ import annotations

import numpy as np

from predvote.accuracy import ErrorTensor, build_accuracy_matrix
from predvote.engine import derive_stream, generator_label
from predvote.errors import FitError
from predvote.generators import fit_kde, gen_nonparametric, gen_parametric
from predvote.matrix_io import write_ecdf_csv, write_matrix_csv
from predvote.models import fit
from predvote.prediction import eval_characteristic
from predvote.voting import (
    ecdf_auc_vote,
    ecdf_steps,
    evaluative_vote,
    fptp_vote,
    positional_vote,
    scale_rows,
    stochastic_dominance,
)


def fit_generators(config, frame, tracer):
    """Fit every generator, plus its residual KDE when it is nonparametric."""
    fitted, kdes = [], []
    for spec in config.generators:
        with tracer.span("models.gen_fit", spec.family):
            model = fit(spec, frame.x_sample, frame.y_sample)
        kde = None
        if not spec.is_parametric:
            with tracer.span("generators.fit_kde", spec.family):
                kde = fit_kde(model.sample_residuals, config.kde_bandwidth)
        fitted.append(model)
        kdes.append(kde)
    return fitted, kdes


def replicate(config, frame, tracer) -> ErrorTensor:
    """Recompute the error tensor of ``engine.simulate_errors`` cell by cell."""
    chars = config.characteristics
    strategies = config.strategies
    n = frame.n
    values = np.zeros((len(config.generators), config.iterations, len(chars), len(strategies)))
    mask = np.zeros((len(config.generators), config.iterations, len(strategies)), dtype=bool)
    with tracer.span("engine.simulate"):
        fitted, kdes = fit_generators(config, frame, tracer)
        x_full = frame.x_full
        for g, (model, kde) in enumerate(zip(fitted, kdes)):
            family = model.spec.family
            for b in range(config.iterations):
                tracer.cell = (g, b)
                with tracer.span("engine.cell"):
                    with tracer.span("engine.derive_stream"):
                        rng = derive_stream(config.master_seed, g + 1, b + 1)
                    with tracer.span("generators.draw", family):
                        if kde is None:
                            population = gen_parametric(model, x_full, rng, g, b)
                        else:
                            population = gen_nonparametric(model, x_full, kde, rng, g, b)
                    y_gen = population.y_full
                    with tracer.span("prediction.truth"):
                        truth = np.array([eval_characteristic(c, y_gen) for c in chars])
                    y_s = y_gen[:n]
                    for p, strategy in enumerate(strategies):
                        try:
                            with tracer.span("models.fit", strategy.model.family):
                                refit = fit(strategy.model, frame.x_sample, y_s)
                        except FitError:
                            mask[g, b, p] = True
                            continue
                        with tracer.span("models.predict", strategy.model.family):
                            y_out = refit.predict(frame.x_out)
                        with tracer.span("prediction.plugin_eval"):
                            composite = np.concatenate([y_s, y_out])
                            predicted = np.array([eval_characteristic(c, composite) for c in chars])
                        values[g, b, :, p] = predicted - truth
        tracer.cell = None
    return ErrorTensor(values=values, failure_mask=mask)


def accuracy_matrix(config, tensor):
    """The labelled S x P accuracy matrix, as ``engine.run`` builds it."""
    return build_accuracy_matrix(
        tensor,
        config.measures,
        [generator_label(i, s) for i, s in enumerate(config.generators)],
        [c.name for c in config.characteristics],
        [s.name for s in config.strategies],
    )


def elect(matrix):
    """The four voting systems and both dominance orders; returns (winners, matrices)."""
    w1, fptp = fptp_vote(matrix)
    w2, positional = positional_vote(matrix)
    w3 = scale_rows(matrix)
    results = (fptp, positional, evaluative_vote(w3), ecdf_auc_vote(w3))
    for order in (1, 2):
        stochastic_dominance(w3, order=order)
    winners = {r.system: sorted(r.winners) for r in results}
    return winners, {"w1": w1, "w2": w2, "w3": w3}


def write_artifacts(directory, matrix, voting_matrices) -> int:
    """Write the CSV artifacts ``predvote run`` writes; returns the bytes written."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / "accuracy_matrix.csv"]
    write_matrix_csv(str(paths[0]), matrix.entries, matrix.row_labels, matrix.col_labels)
    for key, m in voting_matrices.items():
        paths.append(directory / f"{key}.csv")
        write_matrix_csv(str(paths[-1]), m.entries, m.row_labels, m.col_labels)
    w3 = voting_matrices["w3"]
    paths.append(directory / "ecdf.csv")
    write_ecdf_csv(str(paths[-1]), {name: ecdf_steps(w3.entries[:, j]) for j, name in enumerate(w3.col_labels)})
    return sum(p.stat().st_size for p in paths)
