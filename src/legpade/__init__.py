"""Generalized Pade approximants on the Legendre basis.

Truncated partial-wave expansions of scattering amplitudes oscillate near
the backward direction no matter how many terms are kept; replacing the
partial sum by a ratio of two Legendre-basis polynomials matched to the
same coefficients removes the oscillation. This package provides the
matching construction, the special functions it needs, worked scattering
examples with exact oracles, and a small CLI that emits comparison CSVs.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    InsufficientCoefficientsError,
    LegpadeError,
    PoleError,
    QuadratureConvergenceError,
    ResidualTooLargeError,
    SingularSystemError,
)
from .pade import (
    ConstructionReport,
    PadeApproximant,
    build_denominator_system,
    compute_numerator,
    construct,
    default_split,
    evaluate,
    solve_denominator,
)
from .scattering import (
    PotentialSpec,
    RNParams,
    born_exact_invr2,
    born_phase_shift,
    born_series,
    coulomb_exact,
    coulomb_series,
    cross_section,
    exact_half_csc,
    rn_drstar_dr,
    rn_effective_potential,
    rn_phase_shift,
    rn_series,
    rn_tortoise,
    unit_series,
)
from .series import ComplexSeries, eval_partial_sum, project_legendre_coefficient
from .special import (
    legendre_eval,
    legendre_eval_all,
    log_gamma_complex,
    spherical_bessel_j,
    threej_zero_sq,
    triple_product_integral,
)

__all__ = [
    "__version__",
    "LegpadeError",
    "DomainError",
    "PoleError",
    "InsufficientCoefficientsError",
    "SingularSystemError",
    "ResidualTooLargeError",
    "QuadratureConvergenceError",
    "legendre_eval",
    "legendre_eval_all",
    "threej_zero_sq",
    "triple_product_integral",
    "log_gamma_complex",
    "spherical_bessel_j",
    "ComplexSeries",
    "eval_partial_sum",
    "project_legendre_coefficient",
    "PadeApproximant",
    "ConstructionReport",
    "build_denominator_system",
    "solve_denominator",
    "compute_numerator",
    "construct",
    "evaluate",
    "default_split",
    "PotentialSpec",
    "RNParams",
    "unit_series",
    "exact_half_csc",
    "coulomb_series",
    "coulomb_exact",
    "born_phase_shift",
    "born_series",
    "born_exact_invr2",
    "rn_tortoise",
    "rn_drstar_dr",
    "rn_effective_potential",
    "rn_phase_shift",
    "rn_series",
    "cross_section",
]
