"""Weyl functions of half-line restrictions and a reflectionless diagnostic.

The half-line restrictions to [k, infinity) and (-infinity, k] are obtained
by setting the coefficient just outside the cut to -1, which decouples the
straddling 2x2 block and keeps the restriction unitary; finite windows use
the same convention at the far end.  The Caratheodory-type functions

    m_plus(z, k)  =  <delta_k, (E_{+,k} + z)(E_{+,k} - z)^{-1} delta_k>
    m_minus(z, k) = -<delta_k, (E_{-,k} + z)(E_{-,k} - z)^{-1} delta_k>

have positive real part (respectively, positive real part after the sign
flip) on the open disk.  M_plus and M_minus are algebraic combinations of
these, and the reflectionless identity M_plus = -conj(M_minus) on the
spectrum is probed at finite radius r instead of through radial limits.

No window is assembled: by Geronimus' theorem the Schur parameters of the
half-line spectral measure at site k are the window's own coefficients read
away from the cut, so each value is one backward Schur recursion
f <- (a + z f) / (1 + conj(a) z f) over them, started from the far cut
f = -1.  That step is the Mobius map of [[z, a], [conj(a) z, 1]], the Szego
step with alpha = -conj(a) times rho, so a run of steps is one Szego
product, and ``transfer``'s kernel forms them over all points at once.
Every value is certified by recomputing on a doubled window; results that
move more than 1e-8 raise TruncationInstabilityError.  After one explicit
step from -1, each base runs two lanes of dim - 1 steps in lockstep: the far
half of the doubled window and the near half that the short window shares.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import transfer
from .coefficients import CoefficientSequence
from .errors import (
    NumericalInstabilityError,
    TruncationInstabilityError,
    WeylDenominatorError,
)
from .spectral_sets import CircleArcSet

__all__ = [
    "CaratheodoryValue",
    "m_plus",
    "m_minus",
    "M_coefficients",
    "reflectionless_defect",
]

_EDGE_MARGIN = 1e-6
_STABILITY_TOL = 1e-8
_SIGN_SLACK = -1e-8


def _check_sign(re: np.ndarray, side: str) -> None:
    """Refuse real parts of the wrong sign for the side (beyond the slack)."""
    signed = re if side == "plus" else -re
    bad = signed < _SIGN_SLACK
    if np.any(bad):
        raise NumericalInstabilityError(
            f"Caratheodory sign violated on side {side}: Re = {re[bad][0]:.3e}"
        )


@dataclass(frozen=True)
class CaratheodoryValue:
    """One evaluated Weyl coefficient with its truncation metadata."""

    z: complex
    value: complex
    side: str  # "plus" | "minus"
    base_site: int
    truncation_dim: int

    def __post_init__(self):
        _check_sign(np.asarray(self.value.real), self.side)


def _halfline_values(seq: CoefficientSequence, bases, z: np.ndarray, dim: int) -> np.ndarray:
    """<delta_k, (E + z)(E - z)^{-1} delta_k> on the half-line windows of dim
    and 2 dim sites at each (k, side) of ``bases``: rows 2 s and 2 s + 1 of
    the result (2 S, P) for base s, over the 1-d array z.

    By Geronimus' theorem the window's Schur parameters at the base site are
    its coefficients read away from the cut: alpha_k, alpha_{k+1}, ... on the
    right and conj(alpha_{k-1}), conj(alpha_{k-2}), ... on the left.  The far
    cut -1 starts the backward Schur recursion at f = -1, and the value is
    F = (1 + z f) / (1 - z f).  One step from -1 to f_1 leaves the long window's
    2 dim - 2 remaining parameters in two halves of dim - 1, the far half
    and the short window's own: per base, two lanes of Szego products T_far
    and T_near, whose Mobius maps give short = T_near(-1) and
    long = T_near(T_far(f_1)).
    """
    a = np.stack([seq.window(k, k + 2 * dim - 1)[::-1] if side == "plus"
                  else seq.window(k - 2 * dim + 1, k).conj() for k, side in bases])
    f1 = (a[:, :1] - z) / (1.0 - a[:, :1].conj() * z)
    # the Schur step with parameter a is the Szego step with alpha = -conj(a)
    alpha = -a[:, 1:].conj().ravel()
    lanes = CoefficientSequence(lambda n: alpha[n], seq.sup_norm_bound)
    x = transfer._advance(lanes, z, np.arange(2 * len(bases)) * (dim - 1), dim - 1, 2)[0]

    def mobius(half, f):
        # f -> (T11 f + T12) / (T21 f + T22) of every base's far (0) or near (1) lane
        (t11, t21), (t12, t22) = x[:, half::2, :z.size], x[:, half::2, z.size:]
        return (t11 * f + t12) / (t21 * f + t22)

    short, long = mobius(1, -1.0), mobius(1, mobius(0, f1))
    zf = z * np.stack([short, long], axis=1).reshape(-1, z.size)
    return (1.0 + zf) / (1.0 - zf)


def _weyl_values(seq, bases, z, dim) -> list[np.ndarray]:
    """Certified m_plus or (sign-flipped) m_minus values at a 1-d array z, one
    array for each (k, side) of ``bases``, checked in their order."""
    if np.any(np.abs(z) >= 1.0 - _EDGE_MARGIN):
        raise ValueError(f"|z| must be below 1 - 1e-6, got {np.abs(z).max()}")
    if dim < 4:
        raise ValueError(f"dim must be at least 4, got {dim}")
    v = _halfline_values(seq, bases, z, dim)
    out = []
    for (_, side), v1, v2 in zip(bases, v[0::2], v[1::2]):
        moved = np.abs(v1 - v2)
        unstable = moved >= _STABILITY_TOL
        if np.any(unstable):
            raise TruncationInstabilityError(
                f"half-line value moved {moved[unstable].max():.2e} when doubling the "
                f"window (dim {dim} -> {2 * dim}); move z away from the circle "
                "or enlarge dim"
            )
        val = -v1 if side == "minus" else v1
        _check_sign(val.real, side)
        out.append(val)
    return out


def m_plus(
    seq: CoefficientSequence, k: int, z: complex, dim: int = 512
) -> CaratheodoryValue:
    """Weyl coefficient of the right half-line based at site k."""
    z = complex(z)
    val = _weyl_values(seq, [(k, "plus")], np.array([z]), dim)[0][0]
    return CaratheodoryValue(z=z, value=complex(val), side="plus", base_site=k,
                             truncation_dim=dim)


def m_minus(
    seq: CoefficientSequence, k: int, z: complex, dim: int = 512
) -> CaratheodoryValue:
    """Weyl coefficient of the left half-line based at site k (sign-flipped)."""
    z = complex(z)
    val = _weyl_values(seq, [(k, "minus")], np.array([z]), dim)[0][0]
    return CaratheodoryValue(z=z, value=complex(val), side="minus", base_site=k,
                             truncation_dim=dim)


def _m_minus_to_M(alpha_k: complex, m2):
    """M_minus from the sign-flipped m_minus value(s) m2."""
    one_minus = 1.0 - alpha_k.conjugate()
    one_plus = 1.0 + alpha_k.conjugate()
    num = one_minus.real + 1j * one_plus.imag * m2
    den = 1j * one_minus.imag + one_plus.real * m2
    if np.any(np.abs(den) < 1e-12):
        raise WeylDenominatorError(
            f"M_minus denominator is numerically zero "
            f"(|den| = {np.abs(den).min():.2e})"
        )
    return num / den


def M_coefficients(seq: CoefficientSequence, k: int, z, dim: int = 512):
    """The pair (M_plus, M_minus) at (z, k).

    z is a scalar (complex pair out) or a 1-d array (two arrays out); the
    four half-line windows (each side at dim and 2 dim sites) are one stacked
    Schur recursion over all points.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError(f"z must be a scalar or a 1-d array, got shape {zs.shape}")
    pts = zs.reshape(-1)
    mp, m2 = _weyl_values(seq, [(k - 1, "plus"), (k - 2, "minus")], pts, dim)
    mm = _m_minus_to_M(complex(seq(k)), m2)
    if zs.ndim == 0:
        return complex(mp[0]), complex(mm[0])
    return mp, mm


def reflectionless_defect(
    seq: CoefficientSequence,
    k: int,
    S: CircleArcSet,
    r: float,
    samples: int = 32,
    dim: int = 512,
) -> float:
    """max over sampled angles in S of |M_plus + conj(M_minus)| at radius r.

    A finite-radius surrogate for the reflectionless boundary identity;
    smaller is closer to reflectionless on S.
    """
    if not 0.9 <= r < 1.0 - _EDGE_MARGIN:
        raise ValueError(f"r must lie in [0.9, 1 - 1e-6), got {r}")
    if samples < 16:
        raise ValueError(f"samples must be at least 16, got {samples}")
    if S.is_empty():
        raise ValueError("sample set is empty")
    angles = S.sample(samples)
    return float(np.max(_defects(seq, k, angles, [r] * len(angles), dim)))


def _defects(seq: CoefficientSequence, k: int, angles, radii, dim: int) -> np.ndarray:
    """|M_plus + conj(M_minus)| at each point r e^{i theta} of the paired
    ``angles`` and ``radii``.

    r e^{i theta} may round |z| up past r; where that reaches the solver's
    bound (r itself lies below it), the point steps back to modulus <= r.
    """
    z = np.array([r * cmath.exp(1j * th) for th, r in zip(angles, radii)])
    rs = np.asarray(radii, dtype=float)
    near = np.abs(z) >= 1.0 - _EDGE_MARGIN
    while np.any(near):
        z.real[near] = np.nextafter(z.real[near], 0.0)
        z.imag[near] = np.nextafter(z.imag[near], 0.0)
        near &= np.abs(z) > rs
    mp, mm = M_coefficients(seq, k, z, dim)
    return np.abs(mp + mm.conj())
