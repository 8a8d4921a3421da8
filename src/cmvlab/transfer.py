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
Birkhoff product along the orbit is used.  A monodromy whose entries pass
about 1e154 (e^{qL} over a long period) is formed again rescaled, and an
exponent that is still not finite raises NumericalInstabilityError.

Every product (Birkhoff sums, monodromies, discriminant scans) runs through
one kernel that advances the unrolled 2x2 products of a whole 1-d array of
spectral points z at once, step by step, reading alpha in fixed-size blocks.
Each numpy call of a step costs microseconds whatever its size, so a Birkhoff
product over a narrow grid is cut into P consecutive orbit lanes that advance
together, one batched matmul per step for all P segments at every point; the
lanes are then joined in site order by P - 1 products.  The first half of the
lanes gives the estimate at a shorter orbit for free (``half_orbit_estimates``).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .coefficients import CoefficientSequence
from .errors import NumericalInstabilityError
from .spectral_sets import CircleArcSet, TWO_PI

__all__ = [
    "szego",
    "gz_step",
    "monodromy",
    "lyapunov",
    "half_orbit_estimates",
    "estimate_Z",
    "arcs_from_grid",
]

_UNIT_TOL = 1e-9
_BLOCK = 1024  # steps per window call of the product kernel
_BLOCK_SITES = 32 * _BLOCK  # at most this many sites per call when lanes share it
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


def _step_factors(seq: CoefficientSequence, sites: np.ndarray, gz: bool) -> np.ndarray:
    """The z-free factors C_n of the steps at an integer array of sites.

    Shape sites.shape + (2, 2).
    Szego:  S(n, z) = C_n diag(z, 1),  C_n = (1/rho) [[1, -conj(a)], [-a, 1]].
    GZ:     Y(n, z) = C_n for even n,  C_n = (1/rho) [[-a, 1], [1, -conj(a)]];
            Y(n, z) = diag(1, 1/z) C_n diag(1, z) for odd n,
                      C_n = (1/rho) [[-conj(a), 1], [1, -a]].
    """
    al = seq.window(sites)
    mod = np.abs(al)
    if not np.all(mod < 1.0):
        raise ValueError(f"|alpha| must be < 1, got {np.nanmax(mod)}")
    r = 1.0 / np.sqrt(1.0 - (al.real * al.real + al.imag * al.imag))
    c = np.empty(sites.shape + (2, 2), dtype=complex)
    if gz:
        even = sites % 2 == 0
        c[..., 0, 0] = -np.where(even, al, al.conj()) * r
        c[..., 1, 1] = -np.where(even, al.conj(), al) * r
        c[..., 0, 1] = c[..., 1, 0] = r
    else:
        c[..., 0, 0] = c[..., 1, 1] = r
        c[..., 0, 1] = -al.conj() * r
        c[..., 1, 0] = -al * r
    return c


class _Products(NamedTuple):
    """Rescaled products at every point, and the same after the first n_half steps."""

    m: np.ndarray          # (g, 2, 2)
    log_scale: np.ndarray  # (g,) log of the factors divided out of m
    n_half: int
    m_half: np.ndarray
    log_half: np.ndarray


def _lane_count(g: int, n_steps: int, gz: bool, scale_every: int) -> int:
    """Orbit lanes that fill a narrow pass: _POINTS // g, each >= 4 rescalings long.

    GZ monodromies, unscaled products and grids that fill half a pass or
    more take one lane: two lanes of a half-full pass save next to nothing.
    """
    if gz or not scale_every or 2 * g >= _POINTS:
        return 1
    return max(1, min(_POINTS // max(g, 1), n_steps // (4 * scale_every)))


def _advance(seq, zz, starts, length, gz, scale_every, snap=0):
    """Lockstep products of ``length`` steps from each site of ``starts``.

    Lane p multiplies the steps at sites starts[p] ... starts[p] + length - 1;
    GZ products run one lane.  The state x has shape (P, 2, 2g): x[p, r, :g]
    and x[p, r, g:] are row r of lane p's product in column 0 and column 1 at
    the g points of zz = [zs, zs].  After every ``scale_every``-th step
    (0: never) each (lane, point) product is divided by its largest entry
    unless that entry is 0.  Returns x and the (P, g) log scales, then copies
    of both after the first ``snap`` steps.
    """
    lanes, g = starts.size, zz.size // 2
    x = np.zeros((lanes, 2, 2 * g), dtype=complex)
    x[:, 0, :g] = x[:, 1, g:] = 1.0
    y = np.empty_like(x)
    log_scale = np.zeros((lanes, g))
    x_snap, log_snap = x.copy(), log_scale.copy()
    # one window call per block: a (block, P, 2, 2) factor array of <= 2 MB
    block = max(1, min(_BLOCK, _BLOCK_SITES // lanes))
    first = int(starts[0])
    for lo in range(0, length, block):
        hi = min(lo + block, length)
        sites = np.arange(lo, hi)[:, None] + starts
        for j, c in zip(range(lo, hi), _step_factors(seq, sites, gz)):
            odd = (first + j) % 2
            if not gz:
                x[:, 0] *= zz
            elif odd:
                x[:, 1] *= zz
            np.matmul(c, x, out=y)
            x, y = y, x
            if gz and odd:
                x[:, 1] /= zz
            if scale_every and (j + 1) % scale_every == 0:
                s = np.abs(x).reshape(lanes, 4, g).max(axis=1)
                s = np.where(s > 0, s, 1.0)
                x /= np.concatenate([s, s], axis=1)[:, None]
                log_scale += np.log(s)
            if j + 1 == snap:
                x_snap, log_snap = x.copy(), log_scale.copy()
    return x, log_scale, x_snap, log_snap


def _matrices(x: np.ndarray) -> np.ndarray:
    """(P, 2, 2g) lane states as (P, g, 2, 2) matrices."""
    lanes, _, two_g = x.shape
    return x.reshape(lanes, 2, 2, two_g // 2).transpose(0, 3, 1, 2)


def _join(later, log_later, acc, log_acc):
    """later @ acc divided by its largest entry per point, and the summed log scales."""
    m = later @ acc
    s = np.abs(m).reshape(-1, 4).max(axis=1)
    s = np.where(s > 0, s, 1.0)
    return m / s[:, None, None], log_later + log_acc + np.log(s)


def _pass(seq, zs, n_steps, gz, scale_every, lanes) -> _Products:
    """One kernel pass over at most _POINTS points, split into ``lanes`` orbit lanes.

    Lane p multiplies the sites [p L, (p + 1) L), L = n_steps // lanes; the
    lanes are joined in site order by lanes - 1 products, and the leftover
    steps [lanes L, n_steps) follow as one more segment.  The half-orbit
    product is the join of the first lanes // 2 lanes, or, for one lane, a
    snapshot after n_steps // 2 steps.
    """
    zz = np.concatenate([zs, zs])
    if lanes == 1:
        half = n_steps // 2
        x, log_scale, x_half, log_half = _advance(
            seq, zz, np.zeros(1, dtype=int), n_steps, gz, scale_every, half)
        return _Products(_matrices(x)[0], log_scale[0], half,
                         _matrices(x_half)[0], log_half[0])
    length = n_steps // lanes
    x, log_scale, _, _ = _advance(seq, zz, np.arange(lanes) * length, length,
                                  gz, scale_every)
    m = _matrices(x)
    acc, log_acc = m[0], log_scale[0]
    for p in range(1, lanes):
        if p == lanes // 2:
            half = acc, log_acc
        acc, log_acc = _join(m[p], log_scale[p], acc, log_acc)
    if lanes * length < n_steps:
        x, log_scale, _, _ = _advance(seq, zz, np.array([lanes * length]),
                                      n_steps - lanes * length, gz, scale_every)
        acc, log_acc = _join(_matrices(x)[0], log_scale[0], acc, log_acc)
    return _Products(acc, log_acc, lanes // 2 * length, *half)


def _product(
    seq: CoefficientSequence,
    zs: np.ndarray,
    n_steps: int,
    gz: bool = False,
    scale_every: int = 0,
) -> _Products:
    """Ordered product of the first n_steps Szego (or GZ) steps at every z.

    Grids are cut into passes of at most _POINTS points; a pass narrower
    than half of that multiplies P = _lane_count(...) orbit segments at once.
    Memory is O(_POINTS + block): alpha is read one block of sites at a time.
    """
    lanes = _lane_count(zs.size, n_steps, gz, scale_every)
    parts = [_pass(seq, zs[i:i + _POINTS], n_steps, gz, scale_every, lanes)
             for i in range(0, max(zs.size, 1), _POINTS)]
    if len(parts) == 1:
        return parts[0]
    m, log_scale, n_half, m_half, log_half = zip(*parts)
    return _Products(np.concatenate(m), np.concatenate(log_scale), n_half[0],
                     np.concatenate(m_half), np.concatenate(log_half))


def monodromy(seq: CoefficientSequence, q: int, z) -> np.ndarray:
    """Ordered product Y(q-1, z) ... Y(0, z) for even q; shape z.shape + (2, 2)."""
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be a positive even integer, got {q}")
    zs = _as_points(z)
    if np.any(zs == 0):
        raise ValueError("z must be nonzero")
    m = _product(seq, zs, q, gz=True).m
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
    irrelevant); a point where the unscaled monodromy overflows takes the
    spectral radius of the monodromy rescaled at every step, plus the log
    of the scale divided out.  Otherwise the Birkhoff product over n_steps
    sites is formed with periodic rescaling by the max-abs entry to avoid
    overflow.  A scalar z gives a float, a 1-d array of points an array of
    rates; a rate that is not finite (NaN included) raises
    NumericalInstabilityError.
    """
    zs = _as_points(z)
    dev = np.abs(np.abs(zs) - 1.0)
    if np.any(dev > _UNIT_TOL):
        raise ValueError(f"|z| must be 1, got {abs(zs[np.argmax(dev)])}")
    if seq.period is not None:
        q = seq.period * (2 if seq.period % 2 else 1)
        with np.errstate(over="ignore", invalid="ignore"):
            rad = _spectral_radius_2x2(monodromy(seq, q, zs))
        vals = np.log(np.maximum(rad, 1.0)) / q
        over = ~np.isfinite(vals)
        if np.any(over):  # entries past ~1e154: redo those points rescaled
            prod = _product(seq, zs[over], q, gz=True, scale_every=1)
            rad = _spectral_radius_2x2(prod.m)
            vals[over] = np.maximum(np.log(rad) + prod.log_scale, 0.0) / q
    else:
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if scale_every < 1:
            raise ValueError(f"scale_every must be >= 1, got {scale_every}")
        prod = _product(seq, zs, n_steps, scale_every=scale_every)
        vals = _growth(prod.m, prod.log_scale, n_steps)
        records = _HALF_ORBIT.get()
        if records is not None and prod.n_half > 0:
            half = _growth(prod.m_half, prod.log_half, prod.n_half)
            records.append((prod.n_half, float(half[0]) if np.ndim(z) == 0 else half))
    bad = np.flatnonzero(~np.isfinite(vals))  # NaN is not finite
    if bad.size:
        raise NumericalInstabilityError(
            f"Lyapunov exponent {vals[bad[0]]} at z = {complex(zs[bad[0]]):.17g}"
        )
    return float(vals[0]) if np.ndim(z) == 0 else vals


def _growth(m: np.ndarray, log_scale: np.ndarray, n: int) -> np.ndarray:
    return (log_scale + np.log(np.linalg.norm(m, 2, axis=(1, 2)))) / n


_HALF_ORBIT: contextvars.ContextVar = contextvars.ContextVar("half_orbit", default=None)


@contextlib.contextmanager
def half_orbit_estimates():
    """Collect the half-orbit estimates of the Birkhoff ``lyapunov`` calls in the block.

    Yields a list that receives one (n_half, values) pair per Birkhoff call:
    the growth rate of the product over the first n_half < n_steps sites,
    which the same pass forms on the way (the first half of its orbit
    lanes, or a snapshot at n_steps // 2).  Periodic sequences add nothing.
    """
    records: list = []
    token = _HALF_ORBIT.set(records)
    try:
        yield records
    finally:
        _HALF_ORBIT.reset(token)


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
