"""cmvlab: numerical toolkit for CMV operators on the unit circle.

Coefficient sequences, pentadiagonal unitary windows, transfer cocycles and
Lyapunov exponents, Floquet band structure, circle-arc spectral sets,
Weyl-Titchmarsh diagnostics, and coined quantum walks.  Each name has one
public path, through its module: ``from cmvlab import coefficients``.
"""

__version__ = "0.1.0"

from . import coefficients, operator, spectral_sets, transfer  # noqa: F401
from . import floquet, qwalk, weyl  # noqa: F401
