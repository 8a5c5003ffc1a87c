"""predvote: ex-ante selection of a joint prediction strategy by voting.

Simulates future population response vectors under an ensemble of fitted
data-generation models, measures each candidate strategy's plug-in
prediction accuracy for a vector of population characteristics, and elects
a winner under four voting systems.
"""

__version__ = "0.1.0"

from .accuracy import AccuracyMatrix, ErrorTensor, Measure, build_accuracy_matrix, qape, rmse
from .dataset import ColumnSchema, StudyFrame, load_csv, synthesize_portfolio
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    FitError,
    PredvoteError,
    SimulationError,
)
from .generators import KdeModel, fit_kde
from .models import FittedModel, ModelSpec, fit
from .prediction import Characteristic, PredictionStrategy, plug_in_predict
from .voting import (
    SelectionResult,
    VotingMatrix,
    ecdf_auc_vote,
    elect,
    evaluative_vote,
    fptp_vote,
    positional_vote,
    scale_rows,
    stochastic_dominance,
)

__all__ = [
    "AccuracyMatrix",
    "Characteristic",
    "ColumnSchema",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "ErrorTensor",
    "FitError",
    "FittedModel",
    "KdeModel",
    "Measure",
    "ModelSpec",
    "PredictionStrategy",
    "PredvoteError",
    "SelectionResult",
    "SimulationError",
    "StudyFrame",
    "VotingMatrix",
    "build_accuracy_matrix",
    "ecdf_auc_vote",
    "elect",
    "evaluative_vote",
    "fit",
    "fit_kde",
    "fptp_vote",
    "load_csv",
    "plug_in_predict",
    "positional_vote",
    "qape",
    "rmse",
    "scale_rows",
    "stochastic_dominance",
    "synthesize_portfolio",
]
