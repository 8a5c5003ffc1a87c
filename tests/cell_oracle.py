"""Straight-line per-cell loop of a run's simulation, kept as a test oracle.

The public-primitive route to what predvote.engine.simulate_errors
computes: for each (generator, iteration) cell, the population drawn on the
cell's own stream, a fresh fit of every strategy on the simulated sample,
and its plug-in characteristics against the simulated truth. It never
builds a RefitPlan or calls the engine's cell function.
"""

from __future__ import annotations

import numpy as np

from predvote.engine import derive_stream
from predvote.errors import FitError
from predvote.generators import Generator, fit_kde
from predvote.models import fit
from predvote.prediction import eval_characteristics


def refit_plug_in(strategy, frame, y_s, characteristics):
    """A fresh fit on y_s, its predictions for x_out, and the composite's characteristics."""
    y_out = fit(strategy.model, frame.x_sample, y_s).predict(frame.x_out)
    composite = np.concatenate([y_s, y_out])
    return eval_characteristics(characteristics, composite)


def simulate_errors(config, frame):
    """(values, mask): the G x B x C x P errors and the G x B x P cells whose refit raised a FitError."""
    shape = (len(config.generators), config.iterations, len(config.characteristics), len(config.strategies))
    values = np.zeros(shape)
    mask = np.zeros((shape[0], shape[1], shape[3]), dtype=bool)
    for g, spec in enumerate(config.generators):
        model = fit(spec, frame.x_sample, frame.y_sample)
        kde = None if spec.is_parametric else fit_kde(model.sample_residuals)
        for b in range(config.iterations):
            y_gen = Generator.from_model(model, frame.x_full, kde).draw(derive_stream(config.master_seed, g + 1, b + 1))
            truth = eval_characteristics(config.characteristics, y_gen)
            for p, strategy in enumerate(config.strategies):
                try:
                    predicted = refit_plug_in(strategy, frame, y_gen[: frame.n], config.characteristics)
                except FitError:
                    mask[g, b, p] = True
                    continue
                values[g, b, :, p] = predicted - truth
    return values, mask
