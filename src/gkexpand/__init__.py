"""Gaussian kernel feature expansions with uniformly bounded basis functions.

The package builds three expansions of e^(-(x-y)^2) -- the raw power-series
form, a bounded-domain form with summable weights, and a block-recombined
form over the whole line whose weights reach every l_p with p > 1 -- and
numerically certifies the sup-norm, weight and reconstruction laws they
obey, including constructive impossibility certificates for l_1 weights of
general decaying radial kernels.
"""

from .errors import ConstructionError, DomainError, RangeError
from .numerics import (
    SignedLogValue,
    from_real,
    log_factorial,
    slv_product,
    slv_sum,
)
from .basis import (
    PeakInfo,
    bump_approx,
    bump_error,
    eval_h,
    eval_psi,
    fit_h_envelope,
    h_sup_norm,
    peak,
)
from .blocks import (
    BlockSpec,
    ComboDescriptor,
    SignMatrix,
    block_spec,
    combo_descriptor,
    combo_sup_norm,
    eval_combo,
    min_row_separation,
    row_indices,
    sign_matrix,
    sign_rows,
)
from .expansion import (
    BasisDescriptor,
    Combo,
    Expansion,
    RawPsi,
    ScaledH,
    build_bounded,
    build_combo,
    build_raw,
)
from .analysis import (
    WeightStats,
    block_mass,
    divergence_profile,
    lp_norm_check,
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
