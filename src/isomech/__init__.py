"""Isotonic Mechanism toolkit.

Ranking-constrained score estimation for exponential-family review scores:
pool-adjacent-violators projection under a full or block ranking, the
equivalent natural-parameter MLE, majorization utilities, and Monte-Carlo
experiment drivers for truthfulness and estimation-rate studies.
"""

from .errors import (
    AssumptionViolatedError,
    ConstructionFailedError,
    InvalidParameterError,
    IsomechError,
    ValidationError,
)
from .expfam import (
    Binomial,
    Family,
    Gamma,
    Gaussian,
    Poisson,
    ScoreBounds,
    VarianceCertificate,
    family_from_dict,
    family_from_spec,
    kl_divergence_product,
    verify_variance_assumption,
)
from .isotonic import (
    CoarseRanking,
    IsotonicFit,
    Ranking,
    coarse_to_permutation,
    isotonic_mechanism,
    project_descending,
    ranking_constrained_mle,
)

__version__ = "0.1.0"
