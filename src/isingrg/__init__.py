"""Wavelet renormalization engine for the transverse-field Ising chain.

Subpackage map
--------------
``wavelet``
    Daubechies filter bank: taps, transfer function, scaling-function
    transform, quadrature-mirror identities.
``kernels``
    Covariance and propagator of the energy symbol ``z`` (lattice Gibbs,
    critical and massive/thermal scaling limits).
``rgflow``
    Quasi-free states and their lag tables, the two-point functions read
    off them (renormalized flow and scaling limits), momentum window
    selection, fixed-point classification, coupling calibration.
``correlators``
    Pfaffian and Toeplitz spin correlators of the quasi-free states.
``errorbounds``
    Sup-constants, Sobolev-weighted norms, the certified dynamical error
    bound, and the empirical error it dominates.
``lattice_oracle``
    Dense exact-diagonalization oracle: transfer matrices, Jordan-Wigner,
    disentangler circuits, coarse-graining channels (desk-scale sizes).
``cli``
    Deterministic batch command-line surface over all of the above.

Each public name is exported by one submodule and is a production route or
an oracle that a test compares against: ``self_dual_two_point(_expanded)``,
``pfaffian_matchings``, ``gibbs_covariance``, ``second_quantized_exponential``,
``transfer_matrix`` and ``finite_flow``.
"""

from .correlators import (
    SkewMatrix,
    pfaffian,
    pfaffian_matchings,
    self_dual_two_point,
    spin_spin_correlation,
    toeplitz_correlation,
)
from .errorbounds import (
    BoundReport,
    InadmissibleFilterError,
    OscillationResolutionError,
    SupConstantsReport,
    bound_report,
    bound_sweep,
    dynamical_pairing,
    empirical_error,
    sobolev_norm,
    sup_constants,
)
from .kernels import (
    Couplings,
    SelfDualVector,
    SiteVector,
    covariance_critical_limit,
    covariance_lattice,
    covariance_massive_thermal,
    gibbs_covariance,
    one_particle_h,
    z_theta,
)
from .rgflow import (
    DISORDER_KERNEL,
    MOMENTUM_WINDOW,
    ORDER_KERNEL,
    FlowClassification,
    QuasiFreeState,
    calibrated_couplings,
    classify_flow,
    limit_two_point,
    massive_thermal_two_point,
    momentum_cutoff,
    renormalized_two_point,
)
from .wavelet import Filter, high_pass, m0, make_daubechies_filter, s_hat

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # wavelet
    "Filter",
    "make_daubechies_filter",
    "high_pass",
    "m0",
    "s_hat",
    # kernels
    "Couplings",
    "SiteVector",
    "SelfDualVector",
    "z_theta",
    "one_particle_h",
    "covariance_lattice",
    "gibbs_covariance",
    "covariance_critical_limit",
    "covariance_massive_thermal",
    # rgflow
    "QuasiFreeState",
    "renormalized_two_point",
    "limit_two_point",
    "massive_thermal_two_point",
    "momentum_cutoff",
    "calibrated_couplings",
    "classify_flow",
    "FlowClassification",
    "DISORDER_KERNEL",
    "ORDER_KERNEL",
    "MOMENTUM_WINDOW",
    # correlators
    "SkewMatrix",
    "pfaffian",
    "pfaffian_matchings",
    "self_dual_two_point",
    "spin_spin_correlation",
    "toeplitz_correlation",
    # errorbounds
    "InadmissibleFilterError",
    "OscillationResolutionError",
    "SupConstantsReport",
    "BoundReport",
    "sup_constants",
    "sobolev_norm",
    "dynamical_pairing",
    "empirical_error",
    "bound_report",
    "bound_sweep",
]
