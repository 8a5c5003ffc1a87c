import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from predvote.dataset import NUMERIC, ColumnSchema, StudyFrame
from predvote.matrix_io import write_rows


@pytest.fixture
def linear_frame() -> StudyFrame:
    """Noiseless y = 2 + 3x with a small out-of-sample block."""
    x = np.arange(1.0, 13.0).reshape(-1, 1)
    return StudyFrame(
        x_sample=x[:9],
        y_sample=2.0 + 3.0 * x[:9, 0],
        x_out=x[9:],
        column_names=["x"],
    )


def make_positive_frame(n: int = 60, k: int = 12, seed: int = 0, noise: float = 0.1) -> StudyFrame:
    """Strictly positive low-noise response; safe for every model family."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, size=(n + k, 2))
    eta = 1.0 + 0.5 * x[:, 0] - 0.3 * x[:, 1]
    y = np.exp(eta + noise * rng.standard_normal(n + k))
    return StudyFrame(
        x_sample=x[:n],
        y_sample=y[:n],
        x_out=x[n:],
        column_names=["x1", "x2"],
    )


def overflow_refits_on(monkeypatch, y_real: np.ndarray) -> None:
    """Make every parametric refit on y_real predict inf; refits on any other sample run as usual."""
    import predvote.prediction

    real_fit_glm = predvote.prediction.fit_glm

    def fit_glm(design, y, spec):
        state, summary = real_fit_glm(design, y, spec)
        if np.array_equal(y, y_real):  # a log-link mean shifted by inf is inf at every finite eta
            state.log_link, state.mean_shift = True, np.inf
        return state, summary

    monkeypatch.setattr(predvote.prediction, "fit_glm", fit_glm)


@pytest.fixture
def positive_frame() -> StudyFrame:
    return make_positive_frame()


def write_frame_csv(frame: StudyFrame, path) -> ColumnSchema:
    """Write an encoded frame as a data CSV with repr floats, so load_csv reloads it exactly; return its schema."""
    write_rows(path, [
        ["response", *frame.column_names, "insample"],
        *([*map(repr, row), "1"] for row in np.column_stack([frame.y_sample, frame.x_sample]).tolist()),
        *(["", *map(repr, x), "0"] for x in frame.x_out.tolist()),
    ])
    return ColumnSchema(
        response="response",
        covariates=tuple((name, NUMERIC) for name in frame.column_names),
        sample_flag="insample",
    )
