"""cmvlab: numerical toolkit for CMV operators on the unit circle.

Coefficient sequences, pentadiagonal unitary windows, transfer cocycles and
Lyapunov exponents, Floquet band structure, circle-arc spectral sets,
Weyl-Titchmarsh diagnostics, and coined quantum walks.
"""

__version__ = "0.1.0"

from . import coefficients, operator, spectral_sets, transfer  # noqa: F401
from . import floquet, qwalk, weyl  # noqa: F401
from .coefficients import (  # noqa: F401
    CoefficientSequence,
    LimitPeriodicFamily,
    constant_seq,
    lp_sum_criterion,
    pastur_tkachenko_family,
    periodize,
    quasiperiodic_seq,
)
from .operator import BandedUnitary, assemble_cmv, assemble_lm, sieve, theta  # noqa: F401
from .spectral_sets import CircleArcSet, spectral_variation_check  # noqa: F401
from .transfer import gz_step, lyapunov, monodromy, szego  # noqa: F401
from .floquet import (  # noqa: F401
    band_derivative,
    band_eigens,
    floquet_blocks,
    monodromy_bound_check,
    periodic_spectrum,
)
from .weyl import M_coefficients, m_minus, m_plus, reflectionless_defect  # noqa: F401
from .qwalk import build_walk, evolve, survival_probability, to_cmv  # noqa: F401
