"""Generalized Pade approximants on the Legendre basis.

Truncated partial-wave expansions of scattering amplitudes oscillate near
the backward direction no matter how many terms are kept; replacing the
partial sum by a ratio of two Legendre-basis polynomials matched to the
same coefficients removes the oscillation. This package provides the
matching construction, the special functions it needs, worked scattering
examples with exact oracles, and a small CLI that emits comparison CSVs.

Each module's ``__all__`` is its public API; the package re-exports those of
``errors``, ``special``, ``series``, ``pade`` and ``scattering``.
"""

__version__ = "0.1.0"

from . import errors, pade, scattering, series, special
from .errors import *  # noqa: F401,F403
from .pade import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403

__all__ = ["__version__", *errors.__all__, *special.__all__, *series.__all__, *pade.__all__, *scattering.__all__]
