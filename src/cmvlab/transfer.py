"""Transfer cocycles and Lyapunov exponents.

Two one-step 2x2 cocycles over a coefficient sequence:

* the Szego step  S(alpha, z) = (1/rho) [[z, -conj(alpha)], [-z*alpha, 1]],
  with det S = z, so |det S| = 1 on the unit circle;
* the Gesztesy-Zinchenko step Y(n, z), of determinant -1, whose ordered
  product over one (even) period is the monodromy matrix with real trace
  and determinant +1.

Both are one cocycle: for even q the monodromy is a fixed conjugate of
the Szego product T_q(z) = S(alpha_{q-1}, z) ... S(alpha_0, z),

    Y(q-1, z) ... Y(0, z) = z^{-q/2} D(z)^{-1} T_q(z) D(z),   D(z) = diag(1, z),

so the product kernel forms Szego products only.

The Lyapunov exponent is the per-step exponential growth rate of the Szego
products on the unit circle; ``lyapunov`` projects z onto it.  For sequences
with period metadata it is exactly log(spectral radius of T_q) / q;
otherwise a rescaled Birkhoff product along the orbit is used.  A
monodromy or an exponent that is not finite raises NumericalInstabilityError.

Every product (Birkhoff sums, monodromies, discriminant scans, and the
Mobius maps of ``weyl``'s Schur recursions, one lane per window in the disk)
runs through one kernel that advances the products of a whole 1-d array of
spectral points z at once, reading alpha in fixed-size blocks.  Its state is the pair of rows
(u, w) of the product's columns, and a step at site n is one elementwise
update, the Szego step times rho_n:

    u <- z u,   then   (u, w) <- (u - conj(alpha_n) w, w - alpha_n u).

The factors 1/rho_n are not multiplied in: -1/2 sum log1p(-|alpha_n|^2) over
each block of sites goes into the product's log scale, as does the largest
entry divided out every few steps.  On |z| = 1 the Szego step is z^{1/2}
times an SU(1,1) matrix [[A, B], [conj B, conj A]], so the first column
(u, w) of a product of m steps fixes the whole product: its second column is
z^m (conj w, conj u) and its norm is |u| + |w|.  Birkhoff products carry the
first column only; monodromies carry both.

Each numpy call of a step costs microseconds whatever its size, so a Birkhoff
product over a narrow grid of g points (2 g < _POINTS) is cut into P
consecutive orbit lanes that advance together, one update per step for all P
segments at every point.  P is the largest power of two with P g <= 4 _POINTS
and every lane at least four rescalings long.  The lanes are joined pairwise
in log2 P levels, each node of the tree a full 2x2 product: a lane's second
column is rebuilt once from its first, and a joined node keeps both of its
columns, so no long product's second column is ever rebuilt.  The earlier
node of the last level (one lane: a snapshot at N // 2) gives the estimate
at a shorter orbit for free; each Birkhoff call keeps it as ``half_orbit``,
and P as ``lanes``, in the open ``errors.certificates`` block.

A step's calls read every row operand forward and whole: z is tiled once per
pass to the (P, cols * g) shape of a row, and each row is updated from the
other by name, never through a reversed view, which would take numpy off its
contiguous loops.  Steps run in chunks that end at the next rescaling, at the
snapshot or at the end of the block, so those tests run once per chunk, not
once per step.  Every element sees the same operations in the same order as
in a step-at-a-time loop, so the products keep their bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .coefficients import CoefficientSequence, _abs2, _check_disk, _rho
from .errors import NumericalInstabilityError, record
from .spectral_sets import CircleArcSet, TWO_PI

__all__ = [
    "szego",
    "gz_step",
    "monodromy",
    "lyapunov",
    "arcs_from_grid",
]

_UNIT_TOL = 1e-9
_SCALE_EVERY = 16  # steps between rescalings of every product
_BLOCK = 1024  # steps per window call of the product kernel
_BLOCK_SITES = 32 * _BLOCK  # at most this many sites per call when lanes share it
_POINTS = 2048  # points per kernel pass
_LANE_POINTS = 4 * _POINTS  # at most this many (lane, point) products in a narrow pass


def szego(alpha: complex, z: complex) -> np.ndarray:
    """Szego one-step matrix (1/rho) [[z, -conj(a)], [-z a, 1]]."""
    alpha, z = _check_disk(complex(alpha)), complex(z)
    if not abs(z) > 0.0:  # NaN fails too
        raise ValueError("z must be nonzero")
    return np.array(
        [[z, -alpha.conjugate()], [-z * alpha, 1.0]], dtype=complex
    ) / _rho(alpha)


def gz_step(seq: CoefficientSequence, n: int, z: complex) -> np.ndarray:
    """Gesztesy-Zinchenko one-step matrix Y(n, z); parity of n picks the form."""
    z = complex(z)
    if not abs(z) > 0.0:  # NaN fails too
        raise ValueError("z must be nonzero")
    a = _check_disk(seq(n))
    if n % 2 == 0:
        m = np.array([[-a, 1.0], [1.0, -a.conjugate()]], dtype=complex)
    else:
        m = np.array([[-a.conjugate(), z], [1.0 / z, -a]], dtype=complex)
    return m / _rho(a)


# ---------------------------------------------------------------------------
# the product kernel, batched over a 1-d array of spectral points z
# ---------------------------------------------------------------------------

def _as_points(z) -> np.ndarray:
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError(f"z must be a scalar or a 1-d array, got shape {zs.shape}")
    return zs.reshape(-1)


def _passes(zs: np.ndarray):
    """The grid cut into kernel passes of at most _POINTS points."""
    return (zs[i:i + _POINTS] for i in range(0, max(zs.size, 1), _POINTS))


def _lane_count(g: int, n_steps: int) -> int:
    """Birkhoff orbit lanes of a narrow pass: the largest power of two at most
    _LANE_POINTS // g with every lane >= 4 rescalings long.

    Grids that fill half a pass or more take one lane: two lanes of a
    half-full pass save next to nothing.  Monodromies always run one lane.
    """
    if 2 * g >= _POINTS:
        return 1
    most = max(1, min(_LANE_POINTS // max(g, 1), n_steps // (4 * _SCALE_EVERY)))
    return 1 << (most.bit_length() - 1)


def _advance(seq, zs, starts, length, cols, snap=0):
    """Lockstep Szego products of ``length`` steps from each site of ``starts``.

    Lane p multiplies the steps at sites starts[p] ... starts[p] + length - 1.
    The state x has shape (2, P, cols * g): x[0, p] and x[1, p] are the rows
    u and w of lane p's product at the g points of zs, in its first column
    (cols = 1) or in both (cols = 2, column 1 in x[:, :, g:]).  The factors
    1/rho and, after every _SCALE_EVERY-th step, each (lane, point) product's
    largest entry (unless 0) are left out of x and their logs added to the
    (P, g) log scales.  Returns x and the log scales, then copies of both
    after the first ``snap`` steps.
    """
    lanes, g = starts.size, zs.size
    x = np.zeros((2, lanes, cols * g), dtype=complex)
    x[0, :, :g] = x[1, :, g:] = 1.0  # the identity, or its first column
    y = np.empty_like(x)
    (x0, x1), (y0, y1) = x, y  # the rows u and w, as views
    z_lanes = np.tile(zs, (lanes, cols))
    log_scale = np.zeros((lanes, g))
    x_snap = log_snap = None
    # one window call per block: (block, P) coefficients of <= 1 MB
    block = max(1, min(_BLOCK, _BLOCK_SITES // lanes))
    for lo in range(0, length, block):
        hi = min(lo + block, length)
        al = seq.window(np.arange(lo, hi)[:, None] + starts)
        _check_disk(al)
        log_rho = -0.5 * np.log1p(-_abs2(al))
        # the (P, 1) coefficients of u and w at each step
        c_u, c_w = -al.conj()[..., None], -al[..., None]
        # chunks of steps that end at the next rescale, the snapshot or the block end
        j = lo
        while j < hi:
            end = min(hi, (j // _SCALE_EVERY + 1) * _SCALE_EVERY, snap if snap > j else hi)
            # (u, w) <- (z u - conj(a) w, w - a z u)
            for cu, cw in zip(c_u[j - lo:end - lo], c_w[j - lo:end - lo]):
                x0 *= z_lanes
                np.multiply(cu, x1, out=y0)
                np.multiply(cw, x0, out=y1)
                x += y
            if end % _SCALE_EVERY == 0:
                log_scale += _rescale(x.reshape(2, lanes, cols, g))
            if end == snap:
                x_snap = x.copy()
                log_snap = log_scale + log_rho[:end - lo].sum(axis=0)[:, None]
            j = end
        log_scale += log_rho.sum(axis=0)[:, None]
    return x, log_scale, x_snap, log_snap


def _rescale(m: np.ndarray) -> np.ndarray:
    """Divide each product of a stack m (E, P, C, g), the entries m[:, p, :, i]
    of product (p, i), in place by its largest |entry|, or by 1 where that is
    not positive, and return the (P, g) logs of the divisors.  Multiplying by
    1 / s keeps the bits of m / s: numpy's complex division by a real
    computes exactly m * (1 / s)."""
    s = np.abs(m).max(axis=0).max(axis=1)  # reduce the leading axis first, contiguously
    s = np.where(s > 0, s, 1.0)
    m *= (1.0 / s)[:, None]
    return np.log(s)


def _growth(col: np.ndarray, log_scale: np.ndarray, n: int) -> np.ndarray:
    # a Szego product with first column (u, w) has singular values |u| +- |w|
    return (log_scale + np.log(np.abs(col[0]) + np.abs(col[1]))) / n


def _lane_columns(col, z_m):
    """The two columns, each (2, P, g), of the Szego products of m steps whose
    first columns are col = (u, w): on the circle the second is z^m (conj w, conj u)."""
    second = np.conjugate(col[::-1])
    return col, np.multiply(z_m, second, out=second)


def _product(later, log_later, earlier, log_earlier):
    """later @ earlier for stacks of 2x2 products, each given as its two
    columns of rows (2, ...), divided by its largest entry: the product's
    columns stacked (2, 2, ...) and the summed log scales."""
    m = np.empty((2,) + later[0].shape, dtype=complex)
    for k in (0, 1):
        np.multiply(later[0], earlier[k][0], out=m[k])
        m[k] += later[1] * earlier[k][1]
    # each product's four entries on the leading axis, as one column
    return m, log_later + log_earlier + _rescale(m.reshape(4, m.shape[2], 1, m.shape[3]))


def _pass(seq, zs, n_steps, lanes):
    """Birkhoff rates of one pass over at most _POINTS points, split into ``lanes`` orbit lanes.

    Lane p multiplies the sites [p L, (p + 1) L), L = n_steps // lanes, and
    ``lanes`` is 1 or a power of two.  The lanes are joined pairwise, the
    later node times the earlier one, in log2(lanes) levels; the leftover
    steps [lanes L, n_steps) join last as one more segment.  The half-orbit
    product is the earlier node of the last level, the first lanes // 2
    lanes, or, for one lane, a snapshot after n_steps // 2 steps.  Returns
    the rates, n_half and the half-orbit rates (None if n_half is 0).
    """
    if lanes == 1:
        n_half = n_steps // 2
        x, log_scale, x_half, log_half = _advance(
            seq, zs, np.zeros(1, dtype=int), n_steps, 1, n_half)
        col, log_col = x[:, 0], log_scale[0]
        half = (x_half[:, 0], log_half[0]) if n_half else None
    else:
        length = n_steps // lanes
        n_half = lanes // 2 * length
        x, log_m, _, _ = _advance(seq, zs, np.arange(lanes) * length, length, 1)
        cols = _lane_columns(x, zs ** length)
        while log_m.shape[0] > 1:
            if log_m.shape[0] == 2:
                half = cols[0][:, 0], log_m[0]
            cols, log_m = _product([c[:, 1::2] for c in cols], log_m[1::2],
                                   [c[:, 0::2] for c in cols], log_m[0::2])
        if lanes * length < n_steps:
            rest = n_steps - lanes * length
            x, log_scale, _, _ = _advance(seq, zs, np.array([lanes * length]), rest, 1)
            cols, log_m = _product(_lane_columns(x, zs ** rest), log_scale, cols, log_m)
        col, log_col = cols[0][:, 0], log_m[0]
    return (_growth(col, log_col, n_steps), n_half,
            None if half is None else _growth(*half, n_half))


def _birkhoff(seq, zs, n_steps):
    """Birkhoff rates over n_steps sites at every z, the lane count, n_half
    and the half-orbit rates.

    Memory is O(_POINTS + block): alpha is read one block of sites at a time.
    """
    lanes = _lane_count(zs.size, n_steps)
    rates, n_half, half = zip(*(_pass(seq, part, n_steps, lanes) for part in _passes(zs)))
    return (np.concatenate(rates), lanes, n_half[0],
            None if half[0] is None else np.concatenate(half))


def _monodromies(seq, zs, q):
    """Szego products T_q at every z divided by e^{log_scale}: (g, 2, 2) and the (g,) log scales."""
    parts = []
    for part in _passes(zs):
        x, log_scale, _, _ = _advance(seq, part, np.zeros(1, dtype=int), q, 2)
        parts.append((x[:, 0].reshape(2, 2, part.size).transpose(2, 0, 1), log_scale[0]))
    m, log_scale = zip(*parts)
    return np.concatenate(m), np.concatenate(log_scale)


def monodromy(seq: CoefficientSequence, q: int, z) -> np.ndarray:
    """Ordered product Y(q-1, z) ... Y(0, z) for even q; shape z.shape + (2, 2).

    Formed as z^{-q/2} D^{-1} T_q D, D = diag(1, z), from the Szego product
    T_q: the modulus |z|^{-q/2} goes into T_q's log scale before it is
    multiplied in, the unit phase (z/|z|)^{-q/2} after.  A product with an
    entry that is not finite raises NumericalInstabilityError.  The scale
    is one factor for all four entries, and the conjugation can shrink the
    largest by |z| or 1/|z|, so off the circle the error can come up to a
    factor max(|z|, 1/|z|) before the product leaves the float range.
    """
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be a positive even integer, got {q}")
    zs = _as_points(z)
    if not np.all(np.isfinite(zs) & (zs != 0)):
        raise ValueError("z must be finite and nonzero")
    m, log_scale = _monodromies(seq, zs, q)
    m[:, 0, 1] *= zs
    m[:, 1, 0] /= zs
    r = np.abs(zs)
    log_scale -= q // 2 * np.log(r)
    with np.errstate(over="ignore", invalid="ignore"):
        m *= (np.exp(log_scale) * (zs / r) ** -(q // 2))[:, None, None]
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
    if bad.size:
        raise NumericalInstabilityError(
            f"monodromy entry not finite at z = {complex(zs[bad[0]]):.17g}"
        )
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


def lyapunov(seq: CoefficientSequence, z, n_steps: int = 100_000) -> float | np.ndarray:
    """Per-step growth rate of the Szego cocycle at |z| = 1.

    Points within 1e-9 of the unit circle are projected onto it; any other
    point, NaN included, raises ValueError.  Periodic sequences use the exact
    formula (n_steps is then irrelevant): the log of the spectral radius of
    the rescaled Szego product T_q plus its log scale, over q, the period
    (doubled if odd).  On the circle the monodromy, a conjugate of T_q times
    the unit z^{-q/2}, has the same spectral radius.  Otherwise the Birkhoff
    product of the first n_steps Szego steps is formed, as its first column
    only (the second column follows from it on the circle), divided by its
    largest entry every 16 steps and with the factors 1/rho summed into the
    log scale.  A scalar z gives a float, a 1-d array of points an array of
    rates; a rate that is not finite (NaN included) raises
    NumericalInstabilityError.
    """
    zs = _as_points(z)
    dev = np.abs(np.abs(zs) - 1.0)
    if np.any(~(dev <= _UNIT_TOL)):
        raise ValueError(f"|z| must be 1, got {abs(zs[np.argmax(dev)])}")
    zs = zs / np.abs(zs)
    if seq.period is not None:
        q = seq.period * (2 if seq.period % 2 else 1)
        m, log_scale = _monodromies(seq, zs, q)
        vals = np.maximum(np.log(_spectral_radius_2x2(m)) + log_scale, 0.0) / q
    else:
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        vals, lanes, n_half, half = _birkhoff(seq, zs, n_steps)
        record("lanes", lanes)
        if n_half:
            record("half_orbit", (n_half, float(half[0]) if np.ndim(z) == 0 else half))
    bad = np.flatnonzero(~np.isfinite(vals))  # NaN is not finite
    if bad.size:
        raise NumericalInstabilityError(
            f"Lyapunov exponent {vals[bad[0]]} at z = {complex(zs[bad[0]]):.17g}"
        )
    return float(vals[0]) if np.ndim(z) == 0 else vals


def arcs_from_grid(
    angles: Sequence[float], values: Sequence[float], eps_L: float
) -> CircleArcSet:
    """Arcs spanned by cyclically consecutive grid points with value < eps_L."""
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=float)
    if angles.shape != values.shape or angles.ndim != 1 or angles.size == 0:
        raise ValueError("angles and values must be matching nonempty 1-d arrays")
    for name, v in (("angles", angles), ("values", values)):
        if np.isnan(v).any():
            raise ValueError(f"{name} must not be NaN, got {name}[{np.isnan(v).argmax()}]")
    below = values < eps_L
    if np.all(below):
        return CircleArcSet.full_circle()
    if not np.any(below):
        return CircleArcSet.empty()
    n = angles.size
    # runs [start, end] of marked points, from the edges of the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate([[False], below, [False]])))
    start, end = edges[0::2], edges[1::2] - 1
    if below[0] and below[-1]:  # the last run wraps into the first
        start = np.append(start[1:-1], start[-1])
        end = np.append(end[1:-1], end[0] + n)
    hi = angles[end % n] + np.where(end >= n, TWO_PI, 0.0)
    return CircleArcSet.from_arcs(np.column_stack([angles[start], hi]))

