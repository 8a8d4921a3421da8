"""Floquet theory for periodic CMV operators.

For a q-periodic sequence (q even) the twisted q x q restriction is
E_q(k) = L_q M_q(k) (``floquet_matrices``), where L_q stacks the even-index
2x2 blocks and M_q(k) carries the odd interior blocks plus corner entries
-alpha_{q-1}, conj(alpha_{q-1}) on the diagonal and rho_{q-1} e^{-+ i k q}
in the corners.  Its eigenvalues z_n(k) sweep out the spectral bands; the
analytic band velocity has the closed form

    dz/dk = i q rho_{q-1} [conj(v(-1)) u(0) - conj(v(0)) u(-1)],

with v = L_q^* u and the Floquet extensions u(-1) = e^{-ikq} u(q-1) and
v(-1) = e^{-ikq} v(q-1); of v only these two sites are ever formed.

The pairs (z_n(k), u_n) come from a Hermitian problem: for a pole p on the
circle outside the spectrum, the Cayley transform i (pI - E)^{-1} (pI + E)
of the unitary E = E_q(k) is Hermitian with E's eigenvectors and eigenvalue
-cot(beta/2) for each z = p e^{i beta}, and z is read back as u* E u.  The
eigenvalues of the Hermitian part (E + E*)/2 are the cosines of E's
eigenangles, and the pole exp(i arccos c), c the midpoint of the widest gap
of [-1, cosines, 1], lies at least 1/(q + 1) in angle from every eigenvalue.
Band pairs take that pole at the centre of each of eight intervals of
(0, pi/q), one stacked ``eigvalsh`` for all intervals; band edges take it
at k = 0 and pi/q themselves.  The residual ||E u - z u||, which for a
normal E bounds the distance from z to the spectrum, certifies each pair
whatever the pole.

A window of dim sites of a Q-periodic sequence is unitarily the direct sum
of E_Q(k) over the dim / Q phases k = 2 pi j / dim, so ``norm_diff``
compares two periodic sequences block by block.

Bands are alternatively characterized by the discriminant: z belongs to the
spectrum iff the (real) monodromy trace lies in [-2, 2], and eigenvalues of
E_q(k) are exactly the roots of trace = 2 cos(qk).
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import CoefficientSequence, _check_disk, _rho
from .errors import DegenerateBandError, NumericalInstabilityError, note
from .operator import _mul, assemble_lm
from .spectral_sets import CircleArcSet, TWO_PI
from .transfer import monodromy

__all__ = [
    "floquet_matrices",
    "band_stacks",
    "band_derivative",
    "periodic_spectrum",
    "monodromy_bound_check",
    "discriminant",
    "norm_diff",
]

_GAP_TOL = 1e-8
_RESIDUAL_TOL = 1e-10
_K_ENTRIES = 8 * 64 * 64  # matrix entries per stacked eigenproblem, 8 k at q = 64
_POLE_INTERVALS = 8  # intervals of (0, pi/q) that each share one Cayley pole


def _k_block(q: int) -> int:
    """k per stacked eigenproblem: a stack of q x q matrices holds at most
    _K_ENTRIES entries (one matrix when q^2 exceeds it), so the temporaries
    of ``band_stacks`` do not grow with the number of k."""
    return max(1, _K_ENTRIES // (q * q))


def _check_q(seq: CoefficientSequence, q: int) -> None:
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be a positive even integer, got {q}")
    if seq.period is None:
        raise ValueError("sequence must carry period metadata")
    if q % seq.period != 0:
        raise ValueError(
            f"sequence period {seq.period} must divide q = {q}"
        )


def floquet_matrices(seq: CoefficientSequence, q: int, k) -> np.ndarray:
    """The q x q matrices E_q(k) = L_q M_q(k): the wrap window's factors
    over one period, with the Floquet phases e^{-+ikq} in M's corners,
    multiplied once.  For an array of k the result has shape k.shape + (q, q)."""
    _check_q(seq, q)
    k = np.asarray(k, dtype=float)
    L, M = assemble_lm(seq, 0, q)
    M = np.broadcast_to(M, k.shape + (q, q)).copy()
    M[..., 0, q - 1] *= np.exp(-1j * k * q)
    M[..., q - 1, 0] *= np.exp(1j * k * q)
    return np.matmul(L, M, out=M)


def norm_diff(seq1: CoefficientSequence, seq2: CoefficientSequence, dim: int) -> float:
    """Operator norm of the difference of the dim-site periodic-wrap CMV
    windows of two periodic sequences.

    dim must be a multiple of the common period Q (the lcm of the periods,
    doubled if odd).  The window of a Q-periodic sequence is unitarily the
    direct sum of E_Q(k_j) over the dim / Q Floquet phases k_j = 2 pi j / dim,
    one Fourier transform for both sequences, so the norm is the largest
    ||E_Q(k_j) - E'_Q(k_j)|| over j: one stacked singular-value solve of
    dim / Q matrices of size Q x Q.
    """
    if seq1.period is None or seq2.period is None:
        raise ValueError("exact evaluation needs two periodic sequences")
    common = math.lcm(seq1.period, seq2.period)
    if common % 2:
        common *= 2
    if dim < common or dim % common != 0:
        raise ValueError(
            f"window dim {dim} must be a multiple of the common period {common}"
        )
    k = np.arange(dim // common) * (TWO_PI / dim)
    diff = floquet_matrices(seq1, common, k) - floquet_matrices(seq2, common, k)
    return float(np.linalg.svd(diff, compute_uv=False)[:, 0].max())


def _check_residuals(name: str, resid: np.ndarray, where) -> None:
    """Refuse eigenpair residuals ||E u - z u|| above 1e-10 (NaN too), each a
    bound on the distance from z to the spectrum of the normal E; ``note``
    the worst."""
    worst = resid.max(initial=0.0)
    if not worst <= _RESIDUAL_TOL:
        raise NumericalInstabilityError(
            f"eigenpair residual {worst:.2e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    note(name, resid, _RESIDUAL_TOL, where)


def _widest_gap_poles(E: np.ndarray) -> np.ndarray:
    """A Cayley pole for each unitary of a stack E (B, q, q): the
    Hermitian parts (E + E*)/2, one stacked ``eigvalsh``, give the cosines of
    E's eigenangles.  With c the midpoint of the widest gap of [-1, cosines,
    1], at least 2/(q + 1) wide, the pole exp(i arccos c) lies at least
    1/(q + 1) in angle from every eigenvalue and its conjugate (cos is
    1-Lipschitz)."""
    H = E + np.conjugate(E.swapaxes(-1, -2))  # E + E*, Hermitian to the last bit
    c = np.clip(0.5 * np.linalg.eigvalsh(H), -1.0, 1.0)  # ascending
    t = np.pad(c, ((0, 0), (1, 1)), constant_values=(-1.0, 1.0))
    g = np.argmax(np.diff(t, axis=-1), axis=-1)
    rows = np.arange(len(t))
    return np.exp(1j * np.arccos(0.5 * (t[rows, g] + t[rows, g + 1])))


def _poles(seq: CoefficientSequence, q: int, k: np.ndarray) -> np.ndarray:
    """The Cayley pole of each k, chosen from k alone: (0, pi/q) is cut into
    _POLE_INTERVALS equal intervals, and an interval's pole is the
    ``_widest_gap_poles`` pole of E_q at its centre.  Across the interval
    every eigenvalue moves by at most ||E_q(k) - E_q(k')|| (Bhatia-Davis); a
    pole that the spectrum reaches all the same shows in the residuals."""
    width = math.pi / q / _POLE_INTERVALS
    interval = np.minimum(k // width, _POLE_INTERVALS - 1).astype(np.intp)
    touched = np.flatnonzero(np.bincount(interval, minlength=_POLE_INTERVALS))
    poles = np.empty(_POLE_INTERVALS, dtype=complex)
    poles[touched] = _widest_gap_poles(floquet_matrices(seq, q, (touched + 0.5) * width))
    return poles[interval]


def _cayley_eigenpairs(E: np.ndarray, p: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of unitaries E by one Hermitian ``eigh``, sorted
    by angle, with each residual ||E u - z u||: z (B, q), unit u (B, q, q)
    with pair n in column n, and the residuals (B, q).

    H = i (pI - E)^{-1} (pI + E) has E's eigenvectors and the eigenvalues
    -cot(beta/2), beta the angle of z from the pole p of each matrix, which
    is one to one on the circle without p; ``eigh`` gets H + H*, Hermitian to
    the last bit.  z is the Rayleigh quotient u* E u.  A pole near the
    spectrum costs accuracy, ~ eps / dist(p, sigma(E)), which the residual
    shows; LinAlgError (an exactly singular pI - E) is reported as
    NumericalInstabilityError.
    """
    rows = np.arange(E.shape[-1])
    A = -E  # pI - E, then the scratch buffer of the symmetrization and of E u
    A[:, rows, rows] += p[:, None]
    H = E * 1j  # i (pI + E), then H, then the scratch buffer of u* (E u)
    H[:, rows, rows] += 1j * p[:, None]
    try:
        H = np.linalg.solve(A, H)
        H += np.conjugate(H.swapaxes(-1, -2), out=A)
        _, u = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstabilityError(f"Cayley transform failed: {exc}") from None
    Eu = np.matmul(E, u, out=A)
    z = np.multiply(np.conjugate(u, out=H), Eu, out=H).sum(axis=-2)
    Eu -= np.multiply(u, z[:, None, :], out=H)
    resid = np.linalg.norm(Eu, axis=-2)
    order = np.argsort(np.angle(z) % TWO_PI, axis=-1)
    return (np.take_along_axis(z, order, axis=-1),
            np.take_along_axis(u, order[:, None, :], axis=-1),
            np.take_along_axis(resid, order, axis=-1))


def band_stacks(seq: CoefficientSequence, q: int, k):
    """All q eigenpairs of E_q(k) over the K strictly interior k of a scalar or
    a 1-d array, one stack of ``_k_block(q)`` k at a time, so the temporaries
    do not grow with K: an iterator of (s, z, u), s the slice of the k in the
    stack, z (S, q) sorted by angle along each row and unit u (S, q, q) with
    pair n in column n.

    The pairs come from the Hermitian Cayley transform of E_q(k) about a pole
    chosen from k alone (``_poles``: at least 1/(q + 1) in angle from the
    spectrum at the centre of its k interval), so each k gets the same bits
    however the k are batched; the poles of all K are chosen on the call, so
    that each pole interval's eigenproblem is solved once.  Each stack's
    residuals ||E u - z u|| are checked against 1e-10 before it is yielded:
    for the normal E each bounds the distance from z to the spectrum, whatever
    the pole did, so a pole too near the spectrum is refused with
    NumericalInstabilityError rather than returning wrong pairs.

    Interior k keeps the eigenvalues simple; pairs closer than 1e-8 are
    reported through DegenerateBandError instead of being returned silently.
    """
    _check_q(seq, q)
    k = np.asarray(k, dtype=float).reshape(-1)
    outside = ~((0.0 < k) & (k < math.pi / q))
    if outside.any():
        raise ValueError(f"k must lie strictly inside (0, pi/q), got {k[outside][0]}")
    poles, step = _poles(seq, q, k), _k_block(q)
    return (_stack(seq, q, k, poles, slice(b, b + step)) for b in range(0, k.size, step))


def _stack(seq: CoefficientSequence, q: int, k: np.ndarray, poles: np.ndarray, s: slice):
    """The certified eigenpairs (s, z, u) of ``band_stacks`` at the k[s]."""
    z, u, resid = _cayley_eigenpairs(floquet_matrices(seq, q, k[s]), poles[s])

    def at(i, n):
        return {"k": float(k[s][i]), "n": int(n)}

    _check_residuals("max_band_residual", resid, at)

    dist = np.abs(z - np.roll(z, -1, axis=-1))  # pair n to pair n + 1 (mod q)
    gaps = dist.min(axis=-1)
    bad = np.flatnonzero(gaps < _GAP_TOL)
    if bad.size:
        raise DegenerateBandError(float(k[s][bad[0]]), float(gaps[bad[0]]))
    note("min_band_gap", dist, _GAP_TOL, at, smallest=True)
    return s, z, u


def band_derivative(seq: CoefficientSequence, q: int, k, u: np.ndarray) -> np.ndarray:
    """Analytic band velocities dz/dk (K, q) of the pairs u (K, q, q) of
    ``band_stacks`` at its K values of k.  Of v = L_q^* u the formula reads
    v(0) = alpha_0 u(0) + rho_0 u(1) and v(q-1) = rho_{q-2} u(q-2) -
    conj(alpha_{q-2}) u(q-1), rows of L_q's corner blocks; each product is
    rounded like Python's (``_mul``), so the velocities depend neither on the
    SIMD level nor on how k is batched."""
    _check_q(seq, q)
    a = _check_disk(seq.window(np.array([0, q - 2, q - 1])))
    (a0, a2, _), (r0, r2, r1) = a, _rho(a)
    u0, u1, u2, u_last = (u[..., i, :] for i in (0, 1, q - 2, q - 1))
    phase = np.exp(-1j * np.asarray(k, dtype=float).reshape(-1, 1) * q)
    v0 = _mul(a0, u0) + _mul(r0, u1)
    v_m1 = _mul(phase, _mul(r2, u2) - _mul(np.conj(a2), u_last))
    u_m1 = _mul(phase, u_last)
    return _mul(1j * q * r1, _mul(v_m1.conj(), u0) - _mul(v0.conj(), u_m1))


def discriminant(seq: CoefficientSequence, q: int, theta) -> float | np.ndarray:
    """Real monodromy trace at z = exp(i*theta), certified by ``_real_trace``.

    A scalar theta gives a float, a 1-d array of angles an array.
    """
    tr = _real_trace(monodromy(seq, q, np.exp(1j * np.asarray(theta, dtype=float))))
    return float(tr) if np.ndim(theta) == 0 else tr


def _real_trace(m: np.ndarray) -> np.ndarray:
    """The real traces of the monodromies m (..., 2, 2) on the circle.

    Each imaginary part may not exceed 1e-10 times the size of the product
    it rounds, max(1, |tr|, max |Phi_ij|): NumericalInstabilityError names
    the largest that does (NaN fails).
    """
    tr = m[..., 0, 0] + m[..., 1, 1]
    size = np.maximum(np.abs(tr.real), np.abs(m).max(axis=(-2, -1)))
    bad = ~(np.abs(tr.imag) <= 1e-10 * np.maximum(1.0, size))  # NaN fails
    if np.any(bad):
        worst = tr.imag[bad][np.argmax(np.abs(tr.imag[bad]))]
        raise NumericalInstabilityError(
            f"monodromy trace has imaginary part {worst:.2e}"
        )
    return tr.real


def periodic_spectrum(seq: CoefficientSequence, q: int) -> CircleArcSet:
    """Band arcs {z on the circle : trace of the monodromy in [-2, 2]}.

    The 2q band edges are the eigenvalues of E_q(0), where the discriminant
    is +2, and of E_q(pi/q), where it is -2, each from the Cayley transform
    about its own ``_widest_gap_poles`` pole.  Sorted by angle, a cell
    between edges of different levels is a band and a cell between edges of
    the same level is a gap; a closed gap has two equal edges and its
    neighbouring arcs fuse.  Every edge is certified by its eigenpair
    residual, which bounds its distance from the spectrum of the unitary
    E_q(k): NumericalInstabilityError if any residual exceeds 1e-10.
    """
    ks = (0.0, math.pi / q)
    E = floquet_matrices(seq, q, ks)
    z, _, resid = _cayley_eigenpairs(E, _widest_gap_poles(E))
    edges = np.angle(z) % TWO_PI
    _check_residuals("max_edge_residual", resid,
                     lambda i, n: {"k": ks[i], "theta": float(edges[i, n])})
    edges = edges.ravel()
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

    The Bloch number is recovered from the trace, k = arccos(tr/2)/q, which
    ``_real_trace`` certifies as ``discriminant`` does, and the band through
    z is the eigenbranch of E_q(k) closest to z.
    """
    _check_q(seq, q)
    z = complex(z)
    phi = monodromy(seq, q, z)
    tr = float(_real_trace(phi))
    if not -2.0 < tr < 2.0:
        raise ValueError(
            f"z is at or beyond a band edge (trace {tr:.6f} outside (-2, 2))"
        )
    k = math.acos(tr / 2.0) / q
    _, zk, u = next(band_stacks(seq, q, k))
    dist = np.abs(zk[0] - z)
    n = int(np.argmin(dist))
    if dist[n] > 1e-6:
        raise NumericalInstabilityError(
            f"no twisted-restriction eigenvalue matches z (nearest at "
            f"distance {dist[n]:.2e})"
        )
    dz = band_derivative(seq, q, k, u)[0, n]
    lhs = float(np.linalg.norm(phi, 2))
    rhs = 4.0 * q / abs(dz)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-8), "k": k}
