"""Transfer cocycles and Lyapunov exponents.

Two one-step 2x2 cocycles over a coefficient sequence:

* the Szego step  S(alpha, z) = (1/rho) [[z, -conj(alpha)], [-z*alpha, 1]],
  with det S = z, so |det S| = 1 on the unit circle;
* the Gesztesy-Zinchenko step Y(n, z), of determinant -1, whose ordered
  product over one (even) period is the monodromy matrix with real trace
  and determinant +1.

The Lyapunov exponent is the per-step exponential growth rate of the Szego
products.  For sequences with period metadata it short-circuits to the exact
formula log(spectral radius of the monodromy) / period; otherwise a rescaled
Birkhoff product along the orbit is used.

Every product (Birkhoff sums, monodromies, discriminant scans) runs through
one kernel that advances the unrolled 2x2 products of a whole 1-d array of
spectral points z at once, step by step, reading alpha in fixed-size windows.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .coefficients import CoefficientSequence
from .spectral_sets import CircleArcSet, TWO_PI

__all__ = [
    "szego",
    "gz_step",
    "monodromy",
    "lyapunov",
    "estimate_Z",
    "arcs_from_grid",
]

_UNIT_TOL = 1e-9
_BLOCK = 1024  # sites of alpha read per window call of the product kernel
# points per kernel pass: wider passes hand each 2x2 matmul to multithreaded
# BLAS, whose thread hand-off costs far more than the work it splits
_POINTS = 2048


def _require_disk(alpha: complex) -> complex:
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ValueError(f"|alpha| must be < 1, got {abs(alpha)}")
    return alpha


def szego(alpha: complex, z: complex) -> np.ndarray:
    """Szego one-step matrix (1/rho) [[z, -conj(a)], [-z a, 1]]."""
    alpha = _require_disk(alpha)
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    rho = math.sqrt(1.0 - abs(alpha) ** 2)
    return np.array(
        [[z, -alpha.conjugate()], [-z * alpha, 1.0]], dtype=complex
    ) / rho


def gz_step(seq: CoefficientSequence, n: int, z: complex) -> np.ndarray:
    """Gesztesy-Zinchenko one-step matrix Y(n, z); parity of n picks the form."""
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    a = _require_disk(seq(n))
    rho = math.sqrt(1.0 - abs(a) ** 2)
    if n % 2 == 0:
        m = np.array([[-a, 1.0], [1.0, -a.conjugate()]], dtype=complex)
    else:
        m = np.array([[-a.conjugate(), z], [1.0 / z, -a]], dtype=complex)
    return m / rho


# ---------------------------------------------------------------------------
# the product kernel, batched over a 1-d array of spectral points z
# ---------------------------------------------------------------------------

def _as_points(z) -> np.ndarray:
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError(f"z must be a scalar or a 1-d array, got shape {zs.shape}")
    return zs.reshape(-1)


def _step_factors(seq: CoefficientSequence, lo: int, hi: int, gz: bool) -> np.ndarray:
    """The z-free factors C_n of the steps n in [lo, hi), shape (hi - lo, 2, 2).

    Szego:  S(n, z) = C_n diag(z, 1),  C_n = (1/rho) [[1, -conj(a)], [-a, 1]].
    GZ:     Y(n, z) = C_n for even n,  C_n = (1/rho) [[-a, 1], [1, -conj(a)]];
            Y(n, z) = diag(1, 1/z) C_n diag(1, z) for odd n,
                      C_n = (1/rho) [[-conj(a), 1], [1, -a]].
    """
    al = seq.window(lo, hi)
    mod = np.abs(al)
    if not np.all(mod < 1.0):
        raise ValueError(f"|alpha| must be < 1, got {np.nanmax(mod)}")
    r = 1.0 / np.sqrt(1.0 - (al.real * al.real + al.imag * al.imag))
    c = np.empty((hi - lo, 2, 2), dtype=complex)
    if gz:
        even = np.arange(lo, hi) % 2 == 0
        c[:, 0, 0] = -np.where(even, al, al.conj()) * r
        c[:, 1, 1] = -np.where(even, al.conj(), al) * r
        c[:, 0, 1] = c[:, 1, 0] = r
    else:
        c[:, 0, 0] = c[:, 1, 1] = r
        c[:, 0, 1] = -al.conj() * r
        c[:, 1, 0] = -al * r
    return c


def _product(
    seq: CoefficientSequence,
    zs: np.ndarray,
    n_steps: int,
    gz: bool = False,
    scale_every: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product of the first n_steps Szego (or GZ) steps at every z.

    Returns the products, shape (len(zs), 2, 2), and per point the log of
    the factors divided out: after every ``scale_every``-th step (0: never)
    the product is divided by its largest entry unless that entry is 0.
    Memory is O(len(zs) + _BLOCK): alpha is read one window at a time.
    """
    if zs.size > _POINTS:
        parts = [_product(seq, zs[i:i + _POINTS], n_steps, gz, scale_every)
                 for i in range(0, zs.size, _POINTS)]
        return (np.concatenate([m for m, _ in parts]),
                np.concatenate([s for _, s in parts]))
    g = zs.size
    zz = np.concatenate([zs, zs])  # x[r] is row r: column 0, then column 1
    x = np.zeros((2, 2 * g), dtype=complex)
    x[0, :g] = x[1, g:] = 1.0
    y = np.empty_like(x)
    log_scale = np.zeros(g)
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        for n, c in zip(range(lo, hi), _step_factors(seq, lo, hi, gz)):
            odd = n % 2
            if not gz:
                x[0] *= zz
            elif odd:
                x[1] *= zz
            np.matmul(c, x, out=y)
            x, y = y, x
            if gz and odd:
                x[1] /= zz
            if scale_every and (n + 1) % scale_every == 0:
                s = np.abs(x).reshape(4, g).max(axis=0)
                s = np.where(s > 0, s, 1.0)
                x /= np.concatenate([s, s])
                log_scale += np.log(s)
    return x.reshape(2, 2, g).transpose(2, 0, 1), log_scale


def monodromy(seq: CoefficientSequence, q: int, z) -> np.ndarray:
    """Ordered product Y(q-1, z) ... Y(0, z) for even q; shape z.shape + (2, 2)."""
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be a positive even integer, got {q}")
    zs = _as_points(z)
    if np.any(zs == 0):
        raise ValueError("z must be nonzero")
    m, _ = _product(seq, zs, q, gz=True)
    return m[0] if np.ndim(z) == 0 else m


def _spectral_radius_2x2(m: np.ndarray) -> np.ndarray:
    # eigenvalues mean +- sqrt(((a - d)/2)^2 + bc): tr^2/4 - det cancels
    # catastrophically near a band edge, where tr ~ 2 hides a growth rate
    # below machine epsilon
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    mean = (a + d) / 2.0
    half_gap = (a - d) / 2.0
    disc = np.sqrt(half_gap * half_gap + b * c)
    return np.maximum(np.abs(mean + disc), np.abs(mean - disc))


def lyapunov(
    seq: CoefficientSequence,
    z,
    n_steps: int = 100_000,
    scale_every: int = 16,
) -> float | np.ndarray:
    """Per-step growth rate of the Szego cocycle at |z| = 1.

    Periodic sequences use the exact monodromy formula (n_steps is then
    irrelevant); otherwise the Birkhoff product over n_steps sites is formed
    with periodic rescaling by the max-abs entry to avoid overflow.  A scalar
    z gives a float, a 1-d array of points an array of rates.
    """
    zs = _as_points(z)
    dev = np.abs(np.abs(zs) - 1.0)
    if np.any(dev > _UNIT_TOL):
        raise ValueError(f"|z| must be 1, got {abs(zs[np.argmax(dev)])}")
    if seq.period is not None:
        q = seq.period * (2 if seq.period % 2 else 1)
        rad = _spectral_radius_2x2(monodromy(seq, q, zs))
        vals = np.log(np.maximum(rad, 1.0)) / q
    else:
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if scale_every < 1:
            raise ValueError(f"scale_every must be >= 1, got {scale_every}")
        m, log_scale = _product(seq, zs, n_steps, scale_every=scale_every)
        vals = (log_scale + np.log(np.linalg.norm(m, 2, axis=(1, 2)))) / n_steps
    return float(vals[0]) if np.ndim(z) == 0 else vals


def arcs_from_grid(
    angles: Sequence[float], values: Sequence[float], eps_L: float
) -> CircleArcSet:
    """Arcs spanned by cyclically consecutive grid points with value < eps_L."""
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=float)
    if angles.shape != values.shape or angles.ndim != 1 or angles.size == 0:
        raise ValueError("angles and values must be matching nonempty 1-d arrays")
    below = values < eps_L
    if np.all(below):
        return CircleArcSet.full_circle()
    if not np.any(below):
        return CircleArcSet.empty()
    n = angles.size
    # cyclic runs of marked points
    arcs = []
    start = None
    first_run_wraps = below[0] and below[-1]
    for i in range(n):
        if below[i] and start is None:
            start = i
        if start is not None and (i == n - 1 or not below[i + 1]):
            if below[i]:
                arcs.append((start, i))
                start = None
    if first_run_wraps and len(arcs) >= 2:
        s_last, e_last = arcs.pop()
        s_first, e_first = arcs.pop(0)
        arcs.append((s_last, e_first + n))
    out = []
    for s, e in arcs:
        lo = angles[s % n]
        hi = angles[e % n] + (TWO_PI if e >= n else 0.0)
        out.append((lo, hi))
    return CircleArcSet.from_arcs(out)


def estimate_Z(
    seq: CoefficientSequence,
    grid: Sequence[complex],
    n_steps: int = 100_000,
    eps_L: float = 1e-2,
) -> CircleArcSet:
    """Estimate the vanishing set of the Lyapunov exponent on a grid.

    The grid must be sorted by angle; arcs span maximal cyclic runs of grid
    points whose Lyapunov estimate falls below eps_L.  Estimates more negative
    than -eps_L / 10 trigger a warning (n_steps too small).
    """
    if eps_L <= 0:
        raise ValueError(f"eps_L must be positive, got {eps_L}")
    zs = np.asarray(grid, dtype=complex)
    if zs.ndim != 1 or zs.size < 1:
        raise ValueError("grid must be a nonempty 1-d array of unit-modulus points")
    angles = np.angle(zs) % TWO_PI
    if np.any(np.diff(angles) < 0):
        raise ValueError("grid must be sorted by angle")
    vals = lyapunov(seq, zs, n_steps)
    if np.any(vals < -eps_L / 10.0):
        warnings.warn(
            "Lyapunov estimates below -eps_L/10; increase n_steps",
            RuntimeWarning,
            stacklevel=2,
        )
    return arcs_from_grid(angles, vals, eps_L)
