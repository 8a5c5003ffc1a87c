"""Straight-line per-cell loop of a run's simulation, kept as a test oracle.

The public-primitive route to what predvote.engine.simulate_errors
computes: for each (generator, iteration) cell, the population drawn on the
cell's own stream, a fresh fit of every strategy on the simulated sample,
and its plug-in characteristics against the simulated truth. It never
builds a RefitPlan or calls the engine's cell function; a test in
tests/test_engine.py holds its imports to the primitives below.
"""

from __future__ import annotations

import numpy as np

from predvote.engine import derive_stream
from predvote.errors import FitError
from predvote.generators import Generator, fit_kde
from predvote.models import fit
from predvote.prediction import eval_characteristics


@np.errstate(all="ignore")  # an overflowing refit ends in a non-finite prediction, a FitError as in the engine
def simulate_errors(config, frame):
    """(values, mask, reasons): the G x B x C x P errors, and per G x B x P cell whether and why its refit failed.

    reasons[g, b, p] is the message of the cell's FitError, and "" where the refit succeeded.
    """
    shape = (len(config.generators), config.iterations, len(config.characteristics), len(config.strategies))
    values = np.zeros(shape)
    mask = np.zeros((shape[0], shape[1], shape[3]), dtype=bool)
    reasons = np.full(mask.shape, "", dtype=object)
    for g, spec in enumerate(config.generators):
        model = fit(spec, frame.x_sample, frame.y_sample)
        kde = None if spec.is_parametric else fit_kde(model.sample_residuals, config.kde_bandwidth)
        for b in range(config.iterations):
            y_gen = Generator.from_model(model, frame.x_full, kde).draw(derive_stream(config.master_seed, g + 1, b + 1))
            truth = eval_characteristics(config.characteristics, y_gen)
            y_s = y_gen[: frame.n]
            for p, strategy in enumerate(config.strategies):
                try:
                    y_out = fit(strategy.model, frame.x_sample, y_s).predict(frame.x_out)
                    predicted = eval_characteristics(config.characteristics, np.concatenate([y_s, y_out]))
                    bad = [c.name for c, value in zip(config.characteristics, predicted) if not np.isfinite(value)]
                    if bad:
                        raise FitError(f"plug-in prediction of {bad[0]!r} is not finite")
                except FitError as exc:
                    mask[g, b, p], reasons[g, b, p] = True, str(exc)
                    continue
                values[g, b, :, p] = predicted - truth
    return values, mask, reasons
