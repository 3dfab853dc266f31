"""Joint normality testing for multivariate time series with dependent samples.

Kurtosis-based test statistics with colored-process null corrections, an
Archimedean-copula generator for colored non-Gaussian test data with exact
normal marginals, random low-dimensional projections, and a Monte Carlo
rejection-rate harness. Each module's ``__all__`` is its public API, and the
package re-exports all of them.
"""

from .calibrate import *
from .copula import *
from .core import *
from .harness import *
from .kurtosis import *
from .projection import *

__version__ = "0.1.0"
