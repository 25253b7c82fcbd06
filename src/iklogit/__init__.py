"""Sparse logistic regression with possibly indefinite kernels.

The pipeline: build a Gram matrix (:mod:`.kernels`), split it into
positive-definite parts (:mod:`.spectral`), pose the L1-regularized
logistic objective as a difference of convex functions (:mod:`.objective`),
and solve it with a proximal linearized iteration (:mod:`.solver`).
:mod:`.model` and :mod:`.experiment` wrap this into fit/predict calls and
a reproducible benchmark protocol; :mod:`.cli` exposes both as commands.

The package root re-exports the user API documented in the README; every
other name is imported from its module.
"""

from .errors import ConfigError, InputError, NumericalError, ParseError, ResourceError
from .kernels import Dataset, KernelSpec, gram_matrix
from .spectral import decompose_gram
from .objective import DcObjective
from .solver import SolverConfig, pla_fit, rate_monitor
from .model import (
    FittedModel,
    ModelSpec,
    fit,
    load_model,
    predict_label,
    predict_proba,
    save_model,
)

__version__ = "0.1.0"
