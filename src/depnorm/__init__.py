"""Joint normality testing for multivariate time series with dependent samples.

Kurtosis-based test statistics with colored-process null corrections, an
Archimedean-copula generator for colored non-Gaussian test data with exact
normal marginals, random low-dimensional projections, and a Monte Carlo
rejection-rate harness.
"""

from .calibrate import (
    CalibrationBudget,
    CalibrationResult,
    GaussianSurrogate,
    calibrate_null,
    simulate_gaussian_batch,
)
from .copula import (
    ArchimedeanFamily,
    GeneratorConfig,
    ar1_filter,
    generate,
    psi,
    psi_inverse,
    sample_frailty,
)
from .core import (
    CalibrationError,
    CovarianceSequence,
    DegenerateSampleError,
    MomentSource,
    NullMoments,
    RngStream,
    TestReport,
    TimeSeriesSample,
    center,
    load_sample,
    read_binary,
    read_csv,
    resolve_max_lag,
    sample_covariance,
    sample_cross_covariance,
    save_sample,
    write_binary,
    write_csv,
)
from .harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    PAPER_RATES,
    RejectionRateReport,
    reproduce_tables,
    run_experiment,
)
from .kurtosis import (
    KurtosisValue,
    TestKind,
    colored_bivariate_null_moments,
    colored_scalar_null_moments,
    iid_null_moments,
    mardia_kurtosis,
    run_test,
    two_sided_p_value,
)
from .projection import (
    Direction1D,
    Plane2D,
    rotation_matrix,
    sample_direction,
    sample_plane,
    sample_rotation,
)

__version__ = "0.1.0"
