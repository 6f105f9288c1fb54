"""Probabilistic shaping for square QAM on the nonlinear fiber channel.

Design and evaluate shaping distributions (uniform, Maxwell-Boltzmann,
and a two-parameter kurtosis-tailored family) against a semi-analytic
nonlinear channel model, validate them with a split-step fiber
simulator, and export plot-ready CSV through the ``nlshaping`` CLI.

Imported before numpy, the package sets ``OPENBLAS_NUM_THREADS=1`` unless
the variable is already set, so that process and its children run BLAS on
one thread. A process that loaded numpy first keeps numpy's pool.
"""

import os
import sys

__version__ = "0.1.0"

# No BLAS product of the package is large enough to thread (see
# awgn_mi.BLAS_ONE_THREAD_MNK), yet OpenBLAS starts a pool of spinning
# threads when numpy loads. The variable is read only then.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .awgn_mi import QuadratureRule, gauss_hermite, mi_awgn_2d, mi_monte_carlo
from .constellation import Constellation, mean_power, normalized, square_qam
from .nl_model import (
    MiCurvePoint,
    NlChannelModel,
    OptimizationError,
    effective_snr_db,
    evaluate_family,
    mi_curve,
    optimize_mb,
    optimize_per_ring,
    optimize_tailored,
    snr_ratio,
)
from .shaping import (
    Family,
    Pmf,
    ShapingParams,
    build_pmf,
    entropy,
    excess_kurtosis,
    mb_pmf,
    ring_pmf,
    tailored_pmf,
    uniform_pmf,
)
from .ssfm import (
    CFitResult,
    DualPolField,
    LinkConfig,
    Modulation,
    SweepResult,
    amplify,
    estimate_c,
    estimate_snr,
    gaussian_modulation,
    generate_wdm,
    mi_from_samples,
    power_sweep,
    propagate,
    read_config,
    receive,
)

__all__ = [
    "CFitResult",
    "Constellation",
    "DualPolField",
    "Family",
    "LinkConfig",
    "MiCurvePoint",
    "Modulation",
    "NlChannelModel",
    "OptimizationError",
    "Pmf",
    "QuadratureRule",
    "ShapingParams",
    "SweepResult",
    "__version__",
    "amplify",
    "build_pmf",
    "effective_snr_db",
    "entropy",
    "estimate_c",
    "estimate_snr",
    "evaluate_family",
    "excess_kurtosis",
    "gauss_hermite",
    "gaussian_modulation",
    "generate_wdm",
    "mb_pmf",
    "mean_power",
    "mi_awgn_2d",
    "mi_curve",
    "mi_from_samples",
    "mi_monte_carlo",
    "normalized",
    "optimize_mb",
    "optimize_per_ring",
    "optimize_tailored",
    "power_sweep",
    "propagate",
    "read_config",
    "receive",
    "ring_pmf",
    "snr_ratio",
    "square_qam",
    "tailored_pmf",
    "uniform_pmf",
]
