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

import math

import numpy as np

from .coefficients import CoefficientSequence
from .errors import DegenerateBandError, NumericalInstabilityError
from .operator import _check_disk, _lm_entries, _mul
from .spectral_sets import CircleArcSet, TWO_PI
from .transfer import monodromy

__all__ = [
    "floquet_blocks",
    "band_eigens",
    "band_derivative",
    "periodic_spectrum",
    "monodromy_bound_check",
    "discriminant",
]

_GAP_TOL = 1e-8
_RESIDUAL_TOL = 1e-10
_K_BLOCK = 8  # k per stacked eigenproblem: band_eigens' temporaries stay O(q^2)


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
    seq: CoefficientSequence, q: int, k
) -> tuple[np.ndarray, np.ndarray]:
    """The q x q factors L_q and M_q(k): the wrap window over one period
    with the Floquet phases e^{-+ikq} in M's corners.  For an array of k,
    M has shape k.shape + (q, q)."""
    _check_q(seq, q)
    k = np.asarray(k, dtype=float)
    a = seq.window(0, q)
    _check_disk(a)
    L, M = _lm_entries(a)
    M = np.broadcast_to(M, k.shape + (q, q)).copy()
    M[..., 0, q - 1] *= np.exp(-1j * k * q)
    M[..., q - 1, 0] *= np.exp(1j * k * q)
    return L, M


def _eigenpairs(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of a stack of unitaries E, every
    residual ||E u - z u|| checked against 1e-10 (for normal E it bounds the
    distance from z to the spectrum)."""
    w, vecs = np.linalg.eig(E)
    resid = E @ vecs
    resid -= vecs * w[..., None, :]
    worst = np.linalg.norm(resid, axis=-2).max(initial=0.0)
    if worst > _RESIDUAL_TOL:
        raise NumericalInstabilityError(
            f"eigenpair residual {worst:.2e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    return w, vecs


def band_eigens(
    seq: CoefficientSequence, q: int, k
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All q eigenpairs of E_q(k), stacked eigenproblems over the K strictly
    interior k of a scalar or a 1-d array: z (K, q) sorted by angle along each
    row, and unit u, v = L_q^* u (K, q, q) with pair n in column n.

    Interior k keeps the eigenvalues simple; pairs closer than 1e-8 are
    reported through DegenerateBandError instead of being returned silently.
    """
    _check_q(seq, q)
    k = np.asarray(k, dtype=float).reshape(-1)
    outside = ~((0.0 < k) & (k < math.pi / q))
    if outside.any():
        raise ValueError(f"k must lie strictly inside (0, pi/q), got {k[outside][0]}")
    z = np.empty((k.size, q), dtype=complex)
    u, v = np.empty((k.size, q, q), dtype=complex), np.empty((k.size, q, q), dtype=complex)
    for b in range(0, k.size, _K_BLOCK):
        blk = slice(b, b + _K_BLOCK)
        L, M = floquet_blocks(seq, q, k[blk])
        w, vecs = _eigenpairs(L @ M)
        order = np.argsort(np.angle(w) % TWO_PI, axis=-1)
        z[blk] = np.take_along_axis(w, order, axis=-1)
        u[blk] = np.take_along_axis(vecs, order[:, None, :], axis=-1)
        v[blk] = L.conj().T @ u[blk]
        v[blk] /= np.linalg.norm(v[blk], axis=-2, keepdims=True)

    gaps = np.abs(z - np.roll(z, -1, axis=-1)).min(axis=-1)
    bad = np.flatnonzero(gaps < _GAP_TOL)
    if bad.size:
        raise DegenerateBandError(float(k[bad[0]]), float(gaps[bad[0]]))
    return z, u, v


def band_derivative(
    seq: CoefficientSequence, q: int, k, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Analytic band velocities dz/dk (K, q) of ``band_eigens``' pairs u, v
    at its K values of k, rounded like the scalar formula (``_mul``)."""
    _check_q(seq, q)
    a = complex(seq(q - 1))
    rho = math.sqrt(1.0 - abs(a) ** 2)
    phase = np.exp(-1j * np.asarray(k, dtype=float).reshape(-1, 1) * q)
    u_m1 = _mul(phase, u[..., q - 1, :])
    v_m1 = _mul(phase, v[..., q - 1, :])
    return _mul(1j * q * rho,
                _mul(v_m1.conj(), u[..., 0, :]) - _mul(v[..., 0, :].conj(), u_m1))


def discriminant(seq: CoefficientSequence, q: int, theta) -> float | np.ndarray:
    """Real monodromy trace at z = exp(i*theta); imaginary part must vanish.

    The imaginary part may not exceed 1e-10 times the size of the product it
    rounds: max(1, |tr|, max |Phi_ij|).  A scalar theta gives a float, a 1-d
    array of angles an array.
    """
    m = monodromy(seq, q, np.exp(1j * np.asarray(theta, dtype=float)))
    tr = m[..., 0, 0] + m[..., 1, 1]
    size = np.maximum(np.abs(tr.real), np.abs(m).max(axis=(-2, -1)))
    bad = ~(np.abs(tr.imag) <= 1e-10 * np.maximum(1.0, size))  # NaN fails
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
    L, M = floquet_blocks(seq, q, [0.0, math.pi / q])
    edges = np.angle(_eigenpairs(L @ M)[0].ravel()) % TWO_PI
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
    zk, u, v = band_eigens(seq, q, k)
    dist = np.abs(zk[0] - z)
    n = int(np.argmin(dist))
    if dist[n] > 1e-6:
        raise NumericalInstabilityError(
            f"no twisted-restriction eigenvalue matches z (nearest at "
            f"distance {dist[n]:.2e})"
        )
    dz = band_derivative(seq, q, k, u, v)[0, n]
    lhs = float(np.linalg.norm(phi, 2))
    rhs = 4.0 * q / abs(dz)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-8), "k": k}
