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
step with alpha = -conj(a) times rho, so each window is one lane of Szego
products T in ``transfer``'s kernel, over all points at once.  Every
continuation past the cut gives a value in the image of the closed disk
under w -> F(T(w)), F(w) = (1 + z w) / (1 - z w), the Weyl disk (Simon,
OPUC Part 1, 2005); a value whose disk is 1e-8 or more wide raises
TruncationInstabilityError.  ``m_plus`` and ``m_minus`` return that value as
a plain complex number once its disk and the sign of its real part pass.
"""

from __future__ import annotations

import numpy as np

from . import transfer
from .coefficients import CoefficientSequence, _abs2
from .errors import (
    NumericalInstabilityError,
    TruncationInstabilityError,
    WeylDenominatorError,
)
from .spectral_sets import CircleArcSet

__all__ = [
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


def _halfline_values(seq: CoefficientSequence, bases, z: np.ndarray, dim: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """<delta_k, (E + z)(E - z)^{-1} delta_k> on the half-line window of dim
    sites at each (k, side) of ``bases``, and the diameter of its Weyl disk:
    two (S, P) arrays, row s for base s, over the 1-d array z.

    The window's Schur parameters are its dim - 1 coefficients read away
    from the cut: alpha_k ... alpha_{k+dim-2} on the right, conj(alpha_{k-1})
    ... conj(alpha_{k-dim+1}) on the left.  Their lane's product T gives the
    value F(T(-1)), and the disk is the image of |w| <= 1 under the Mobius
    map F o T = [[t21 + z t11, t22 + z t12], [C, D]] of determinant
    2 z det T: 4 |z| |det T| / (|D|^2 - |C|^2) across if |D| > |C|, else inf.
    |det T| = |z|^(dim - 1) e^(-2 log_scale), as the rescaled entries' own
    determinant cancels to rounding.
    """
    a = np.stack([seq.window(k, k + dim - 1)[::-1] if side == "plus"
                  else seq.window(k - dim + 1, k).conj() for k, side in bases])
    # the Schur step with parameter a is the Szego step with alpha = -conj(a)
    alpha = -a.conj().ravel()
    lanes = CoefficientSequence(lambda n: alpha[n])
    x, log_scale, _, _ = transfer._advance(lanes, z, np.arange(len(bases)) * (dim - 1),
                                           dim - 1, 2)
    (t11, t21), (t12, t22) = x[..., :z.size], x[..., z.size:]
    # z as a (1, P) row: numpy multiplies a (P,) array by a (1, 1) one in its
    # scalar loop, without the fused multiply-adds of every other shape
    zf = z[None] * ((t12 - t11) / (t22 - t21))
    den = _abs2(t22 - z * t12) - _abs2(t21 - z * t11)  # |D|^2 - |C|^2
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.exp((dim - 1) * np.log(np.abs(z)) - 2.0 * log_scale)
        diameter = np.where(den > 0, 4.0 * np.abs(z) * det / den, np.inf)
    return (1.0 + zf) / (1.0 - zf), diameter


def _weyl_values(seq, bases, z, dim) -> list[np.ndarray]:
    """Certified m_plus or (sign-flipped) m_minus values at a 1-d array z, one
    array for each (k, side) of ``bases``, checked in their order."""
    if np.any(~(np.abs(z) < 1.0 - _EDGE_MARGIN)):
        raise ValueError(f"|z| must be below 1 - 1e-6, got {np.abs(z).max()}")
    if dim < 4:
        raise ValueError(f"dim must be at least 4, got {dim}")
    values, diameters = _halfline_values(seq, bases, z, dim)
    out = []
    for (_, side), v, diameter in zip(bases, values, diameters):
        uncertified = ~(diameter < _STABILITY_TOL)
        if np.any(uncertified):
            raise TruncationInstabilityError(
                f"half-line value not certified on a window of dim {dim} sites: its "
                f"Weyl disk has diameter {diameter[uncertified].max():.2e} >= 1e-8; "
                "move z away from the circle or enlarge dim"
            )
        val = -v if side == "minus" else v
        _check_sign(val.real, side)
        out.append(val)
    return out


def m_plus(seq: CoefficientSequence, k: int, z: complex, dim: int = 512) -> complex:
    """Weyl coefficient of the right half-line based at site k."""
    return complex(_weyl_values(seq, [(k, "plus")], np.array([complex(z)]), dim)[0][0])


def m_minus(seq: CoefficientSequence, k: int, z: complex, dim: int = 512) -> complex:
    """Weyl coefficient of the left half-line based at site k (sign-flipped)."""
    return complex(_weyl_values(seq, [(k, "minus")], np.array([complex(z)]), dim)[0][0])


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
    two half-line windows are one stacked Schur recursion over all points.
    """
    mp, m2 = _weyl_values(seq, [(k - 1, "plus"), (k - 2, "minus")],
                          transfer._as_points(z), dim)
    mm = _m_minus_to_M(complex(seq(k)), m2)
    if np.ndim(z) == 0:
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
    rs = np.asarray(radii, dtype=float)
    z = rs * np.exp(1j * np.asarray(angles, dtype=float))
    near = np.abs(z) >= 1.0 - _EDGE_MARGIN
    while np.any(near):
        z.real[near] = np.nextafter(z.real[near], 0.0)
        z.imag[near] = np.nextafter(z.imag[near], 0.0)
        near &= np.abs(z) > rs
    mp, mm = M_coefficients(seq, k, z, dim)
    return np.abs(mp + mm.conj())
