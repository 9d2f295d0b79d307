"""Section V: HDR4ME — High-Dimensional Re-calibration for Mean Estimation.

Public surface:

* :func:`recalibrate_l1` / :func:`recalibrate_l2` — the paper's one-off
  solvers (Eq. 34 / Eq. 42);
* :class:`ProximalGradientSolver` — the generic PGD the closed forms are
  derived from;
* :func:`l1_lambda` / :func:`l2_lambda` / :func:`improvement_guarantee` —
  framework-driven λ* selection and the Theorem 3/4 probability bounds;
* :class:`Recalibrator` / :class:`RecalibrationResult` — the façade tying
  the above together;
* :func:`one_hot_encode` / :func:`postprocess_frequencies` /
  :func:`norm_sub_frequencies` — the Section V-C histogram encoding and
  frequency post-processing (the estimation itself is a categorical
  attribute of :class:`~repro.session.LDPServer`).
"""

from .elastic_net import ElasticNetRegularizer, recalibrate_elastic_net
from .frequency import (
    adapt_to_unit_domain,
    norm_sub_frequencies,
    one_hot_encode,
    postprocess_frequencies,
    true_frequencies,
)
from .lambda_select import (
    DEFAULT_CONFIDENCE,
    DEFAULT_FLOOR,
    ImprovementGuarantee,
    deviation_envelopes,
    improvement_guarantee,
    l1_lambda,
    l2_lambda,
)
from .recalibrator import RecalibrationResult, Recalibrator
from .regularizers import (
    L1Regularizer,
    L2Regularizer,
    Regularizer,
    get_regularizer,
    ridge_shrink,
    soft_threshold,
)
from .solvers import (
    PGDResult,
    ProximalGradientSolver,
    recalibrate_l1,
    recalibrate_l2,
)

__all__ = [
    "DEFAULT_CONFIDENCE",
    "ElasticNetRegularizer",
    "recalibrate_elastic_net",
    "DEFAULT_FLOOR",
    "ImprovementGuarantee",
    "L1Regularizer",
    "L2Regularizer",
    "PGDResult",
    "ProximalGradientSolver",
    "RecalibrationResult",
    "Recalibrator",
    "Regularizer",
    "adapt_to_unit_domain",
    "deviation_envelopes",
    "get_regularizer",
    "improvement_guarantee",
    "l1_lambda",
    "l2_lambda",
    "norm_sub_frequencies",
    "one_hot_encode",
    "postprocess_frequencies",
    "recalibrate_l1",
    "recalibrate_l2",
    "ridge_shrink",
    "soft_threshold",
    "true_frequencies",
]
