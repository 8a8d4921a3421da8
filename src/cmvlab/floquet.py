"""Floquet theory for periodic CMV operators.

For a q-periodic sequence (q even) the twisted q x q restriction factors as
E_q(k) = L_q M_q(k), where L_q stacks the even-index 2x2 blocks and M_q(k)
carries the odd interior blocks plus corner entries -alpha_{q-1},
conj(alpha_{q-1}) on the diagonal and rho_{q-1} e^{-+ i k q} in the corners.
Its eigenvalues z_n(k) sweep out the spectral bands; the analytic band
velocity has the closed form

    dz/dk = i q rho_{q-1} [conj(v(-1)) u(0) - conj(v(0)) u(-1)],

with v = L_q^{-1} u and the Floquet extension u(-1) = e^{-ikq} u(q-1).
Bands are alternatively characterized by the discriminant: z belongs to the
spectrum iff the (real) monodromy trace lies in [-2, 2], and eigenvalues of
E_q(k) are exactly the roots of trace = 2 cos(qk).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSequence
from .errors import DegenerateBandError, NumericalInstabilityError
from .operator import _check_disk, _lm_entries
from .spectral_sets import CircleArcSet, TWO_PI
from .transfer import monodromy

__all__ = [
    "FloquetEigenpair",
    "floquet_blocks",
    "floquet_operator",
    "band_eigens",
    "band_derivative",
    "periodic_spectrum",
    "monodromy_bound_check",
    "discriminant",
]

_GAP_TOL = 1e-8
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class FloquetEigenpair:
    """Eigenpair of the twisted restriction: E_q(k) u = z u, v = L_q^{-1} u."""

    k: float
    z: complex
    u: np.ndarray
    v: np.ndarray


def _check_q(seq: CoefficientSequence, q: int) -> None:
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be a positive even integer, got {q}")
    if seq.period is None:
        raise ValueError("sequence must carry period metadata")
    if q % seq.period != 0:
        raise ValueError(
            f"sequence period {seq.period} must divide q = {q}"
        )


def floquet_blocks(
    seq: CoefficientSequence, q: int, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """The q x q factors L_q and M_q(k): the wrap window over one period
    with the Floquet phases e^{-+ikq} in M's corners."""
    _check_q(seq, q)
    k = float(k)
    a = seq.window(0, q)
    _check_disk(a)
    L, M = _lm_entries(a)
    M[0, q - 1] *= cmath.exp(-1j * k * q)
    M[q - 1, 0] *= cmath.exp(1j * k * q)
    return L, M


def floquet_operator(seq: CoefficientSequence, q: int, k: float) -> np.ndarray:
    L, M = floquet_blocks(seq, q, k)
    return L @ M


def _eigenpairs(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of the unitary E, every residual
    ||E u - z u|| checked against 1e-10 (for normal E it bounds the distance
    from z to the spectrum)."""
    w, vecs = np.linalg.eig(E)
    resid = np.linalg.norm(E @ vecs - vecs * w, axis=0)
    if resid.max() > _RESIDUAL_TOL:
        raise NumericalInstabilityError(
            f"eigenpair residual {resid.max():.2e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    return w, vecs


def band_eigens(
    seq: CoefficientSequence, q: int, k: float
) -> list[FloquetEigenpair]:
    """All q eigenpairs at strictly interior k, sorted by eigenvalue angle.

    Interior k keeps the eigenvalues simple; pairs closer than 1e-8 are
    reported through DegenerateBandError instead of being returned silently.
    """
    _check_q(seq, q)
    k = float(k)
    if not 0.0 < k < math.pi / q:
        raise ValueError(f"k must lie strictly inside (0, pi/q), got {k}")
    L, M = floquet_blocks(seq, q, k)
    E = L @ M
    w, vecs = _eigenpairs(E)
    order = np.argsort(np.angle(w) % TWO_PI)
    w = w[order]
    vecs = vecs[:, order]

    gaps = np.abs(w - np.roll(w, -1))
    if w.size > 1 and gaps.min() < _GAP_TOL:
        i = int(np.argmin(gaps))
        raise DegenerateBandError(k, float(gaps[i]))

    duals = L.conj().T @ vecs
    duals /= np.linalg.norm(duals, axis=0)
    return [FloquetEigenpair(k=k, z=complex(w[i]), u=vecs[:, i].copy(), v=duals[:, i])
            for i in range(q)]


def band_derivative(
    pair: FloquetEigenpair, seq: CoefficientSequence, q: int
) -> complex:
    """Analytic band velocity dz/dk at the eigenpair's (k, z)."""
    _check_q(seq, q)
    a = complex(seq(q - 1))
    rho = math.sqrt(1.0 - abs(a) ** 2)
    phase = cmath.exp(-1j * pair.k * q)
    u_m1 = phase * pair.u[q - 1]
    v_m1 = phase * pair.v[q - 1]
    return 1j * q * rho * (
        v_m1.conjugate() * pair.u[0] - pair.v[0].conjugate() * u_m1
    )


def discriminant(seq: CoefficientSequence, q: int, theta) -> float | np.ndarray:
    """Real monodromy trace at z = exp(i*theta); imaginary part must vanish.

    The imaginary part may not exceed 1e-10 times the size of the product it
    rounds: max(1, |tr|, max |Phi_ij|).  A scalar theta gives a float, a 1-d
    array of angles an array.
    """
    m = monodromy(seq, q, np.exp(1j * np.asarray(theta, dtype=float)))
    tr = m[..., 0, 0] + m[..., 1, 1]
    size = np.maximum(np.abs(tr.real), np.abs(m).max(axis=(-2, -1)))
    bad = np.abs(tr.imag) > 1e-10 * np.maximum(1.0, size)
    if np.any(bad):
        worst = tr.imag[bad][np.argmax(np.abs(tr.imag[bad]))]
        raise NumericalInstabilityError(
            f"monodromy trace has imaginary part {worst:.2e}"
        )
    return float(tr.real) if np.ndim(theta) == 0 else tr.real


def periodic_spectrum(seq: CoefficientSequence, q: int) -> CircleArcSet:
    """Band arcs {z on the circle : trace of the monodromy in [-2, 2]}.

    The 2q band edges are the eigenvalues of E_q(0), where the discriminant
    is +2, and of E_q(pi/q), where it is -2.  Sorted by angle, a cell between
    edges of different levels is a band and a cell between edges of the same
    level is a gap; a closed gap has two equal edges and its neighbouring
    arcs fuse.  Every edge is certified by its eigenpair residual, which
    bounds its distance from the spectrum of the unitary E_q(k):
    NumericalInstabilityError if any residual exceeds 1e-10.
    """
    _check_q(seq, q)
    z = np.concatenate([_eigenpairs(floquet_operator(seq, q, k))[0]
                        for k in (0.0, math.pi / q)])
    edges = np.angle(z) % TWO_PI
    level = np.repeat([2.0, -2.0], q)
    order = np.argsort(edges, kind="stable")
    edges, level = edges[order], level[order]
    band = level != np.roll(level, -1)
    hi = np.append(edges[1:], edges[0] + TWO_PI)
    return CircleArcSet.from_arcs(np.column_stack([edges, hi])[band])


def monodromy_bound_check(
    seq: CoefficientSequence, q: int, z: complex
) -> dict:
    """Verify ||Phi_q(z)|| <= 4 q / |dz/dk| at a band-interior point.

    The Bloch number is recovered from the discriminant, k = arccos(tr/2)/q,
    and the band through z is the eigenbranch of E_q(k) closest to z.
    """
    _check_q(seq, q)
    z = complex(z)
    phi = monodromy(seq, q, z)
    tr = complex(np.trace(phi))
    if abs(tr.imag) > 1e-8:
        raise NumericalInstabilityError(
            f"monodromy trace has imaginary part {tr.imag:.2e}"
        )
    if not -2.0 < tr.real < 2.0:
        raise ValueError(
            f"z is at or beyond a band edge (trace {tr.real:.6f} outside (-2, 2))"
        )
    k = math.acos(tr.real / 2.0) / q
    pairs = band_eigens(seq, q, k)
    best = min(pairs, key=lambda p: abs(p.z - z))
    if abs(best.z - z) > 1e-6:
        raise NumericalInstabilityError(
            f"no twisted-restriction eigenvalue matches z (nearest at "
            f"distance {abs(best.z - z):.2e})"
        )
    dz = band_derivative(best, seq, q)
    lhs = float(np.linalg.norm(phi, 2))
    rhs = 4.0 * q / abs(dz)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-8), "k": k}
