"""Gaussian kernel feature expansions with uniformly bounded basis functions.

The package builds three expansions of e^(-(x-y)^2) -- the raw power-series
form, a bounded-domain form with summable weights, and a block-recombined
form over the whole line whose weights reach every l_p with p > 1 -- and
numerically certifies the sup-norm, weight and reconstruction laws they
obey, including constructive impossibility certificates for l_1 weights of
general decaying radial kernels.
"""

from .errors import ConstructionError, DomainError, RangeError
from .numerics import log_factorial
from .basis import (
    PeakInfo,
    bump_error,
    fit_h_envelope,
    peak,
)
from .blocks import (
    BlockSpec,
    SignMatrix,
    block_spec,
    min_row_separation,
    row_indices,
    row_sup_norms,
    sign_matrix,
    sign_rows,
)
from .expansion import (
    Expansion,
    build_bounded,
    build_combo,
    build_raw,
)
from .analysis import (
    WeightStats,
    block_mass,
    divergence_profile,
)
from .reconstruct import (
    ReconstructionReport,
    exact_kernel,
    grid_report,
    series_kernel,
    tail_bound,
)
from .probe import (
    PROFILES,
    TEMPLATES,
    ProbeCertificate,
    build_certificate,
    decay_radius,
    implied_weight_bound,
    verify_certificate,
)

__version__ = "0.1.0"
