"""Sign-persistence laboratory for binomial-weighted random polynomials.

Core pieces: log-domain evaluation of the random polynomial family and its
variance kernel, exact positive-root counting over dyadic rationals, a smooth
stationary Gaussian-process simulator with survival-exponent fitting, Monte
Carlo persistence estimators, and the replicator-dynamics equilibrium
correspondence for random multiplayer games.
"""

__version__ = "0.1.0"

from .logscale import SignedLogValue
from .polys import BinomialPolynomial, eval_f, sample_polynomial
from .roots import DyadicPolynomial, count_positive_roots, is_persistent
from .stats import PersistenceEstimate, wilson_ci

__all__ = [
    "__version__",
    "SignedLogValue",
    "BinomialPolynomial",
    "sample_polynomial",
    "eval_f",
    "DyadicPolynomial",
    "count_positive_roots",
    "is_persistent",
    "PersistenceEstimate",
    "wilson_ci",
]
