"""Local surrogate explanations for black-box models, with Bayesian priors.

The workflow: perturb an instance, probe the black box, weight samples by
proximity, fit a weighted linear surrogate, rank features by coefficient
magnitude. The surrogate is either a plain ridge regression or a Bayesian
linear regression whose prior can encode knowledge from earlier
explanations; two metrics quantify how consistent repeated explanations
are and how robust they stay under kernel-width changes.
"""

__version__ = "0.1.0"

from .blackbox import PredictorHandle, probe, select_class, with_class
from .errors import (
    BaylimeError,
    ConfigError,
    ContractViolationError,
    ConvergenceError,
    DecompositionError,
    FitError,
    InvalidInputError,
    ProbeError,
    ShapeError,
    SingularityError,
    UndefinedMetricError,
)
from .explainer import (
    BayLime,
    ExplainConfig,
    LimeRidge,
    elicit_prior,
    explain,
    explain_block,
)
from .kernel import KernelConfig, apply_weights, default_width, kernel_weight
from .metrics import (
    MetricReport,
    inconsistency,
    kendalls_w,
    robustness,
    width_pairs,
)
from .perturb import (
    PerturbConfig,
    column_statistics,
    config_from_data,
    frequency_table,
    perturb_matrix,
)
from .regression import PriorSpec, SurrogateFit, decompose
from .types import (
    BINARY_MASK,
    CATEGORICAL,
    NUMERICAL,
    Explanation,
    ExplanationEnsemble,
    Instance,
    PerturbationSet,
    normalize_coefficients,
    rank_features,
)

__all__ = [
    "__version__",
    "BINARY_MASK", "CATEGORICAL", "NUMERICAL",
    "BayLime", "BaylimeError", "ConfigError", "ContractViolationError",
    "ConvergenceError", "DecompositionError", "ExplainConfig", "Explanation",
    "ExplanationEnsemble", "FitError", "Instance", "InvalidInputError",
    "KernelConfig", "LimeRidge", "MetricReport", "PerturbConfig",
    "PerturbationSet", "PredictorHandle", "PriorSpec", "ProbeError",
    "ShapeError", "SingularityError", "SurrogateFit", "UndefinedMetricError",
    "apply_weights", "column_statistics",
    "config_from_data", "decompose", "default_width", "elicit_prior",
    "explain", "explain_block", "frequency_table",
    "inconsistency", "kendalls_w", "kernel_weight", "normalize_coefficients",
    "perturb_matrix", "probe", "rank_features", "robustness",
    "select_class", "width_pairs", "with_class",
]
