"""Band arcs swept by the Floquet eigenvalues over a k-grid.

The independent test oracle for ``floquet.periodic_spectrum``: it follows
every eigenbranch of E_q(k) across [0, pi/q] instead of reading only the two
end points.
"""

import math

import numpy as np
import scipy.optimize

from cmvlab import floquet as F
from cmvlab.spectral_sets import CircleArcSet, TWO_PI


def band_arcs_from_kgrid(seq, q: int, k_points: int = 129) -> CircleArcSet:
    """Band arcs swept by the eigenvalues of E_q(k) over [0, pi/q].

    Branches are threaded across the k-grid by nearest-eigenvalue assignment;
    each branch moves monotonically in angle inside a band, so its swept arc
    runs between its unwrapped extremes.
    """
    F._check_q(seq, q)
    if k_points < 2:
        raise ValueError(f"k_points must be at least 2, got {k_points}")

    E = F.floquet_matrices(seq, q, np.linspace(0.0, math.pi / q, k_points))
    prev = None
    tracks = None
    for w in np.linalg.eigvals(E):
        if prev is None:
            order = np.argsort(np.angle(w) % TWO_PI)
            w = w[order]
            tracks = [[float(np.angle(z) % TWO_PI)] for z in w]
        else:
            cost = np.abs(prev[:, None] - w[None, :])
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            w = w[cols[np.argsort(rows)]]
            for i, z in enumerate(w):
                last = tracks[i][-1]
                ang = float(np.angle(z))
                # unwrap to the closest representative of the new angle
                ang += TWO_PI * round((last - ang) / TWO_PI)
                tracks[i].append(ang)
        prev = w
    arcs = []
    for tr in tracks:
        lo, hi = min(tr), max(tr)
        arcs.append((lo, hi))
    return CircleArcSet.from_arcs(arcs)
