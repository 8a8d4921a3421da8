"""Coined quantum walks on the line and their CMV representation.

The one-step operator is U = S Q: first the coin Q = diag(Q_n) acts on each
site's spin pair, then the biased shift S moves spin-up amplitudes one site
right and spin-down amplitudes one site left.  Under the basis ordering

    site n, spin +  ->  flat index 2n + 1
    site n, spin -  ->  flat index 2n + 2

U is pentadiagonal with the CMV block structure exactly when every coin has
the gauge form [[rho, -g], [conj(g), rho]] with g in the open disk and
rho = sqrt(1 - |g|^2); the extracted Verblunsky coefficients then sit at odd
flat indices (even ones vanish).  Coins outside this gauge are reported with
the offending site instead of being silently renormalized.

A coin sequence is an array map from integer sites to their 2x2 coins: a
periodic (P, 2, 2) table (``table_coins``; identity, Hadamard and constant
coins are tables of one), or the gauge-form coins of a coefficient sequence
gamma (``cgmv_coins``).  A walk operator reads the coins of its window in
one call, and those of one period when the coins are periodic.

A walk operator on a finite window of sites has two views: its cyclic window
(the shift wraps around), which ``to_cmv`` compares in banded form with a
periodic-wrap CMV window, and its step, which absorbs what the shift moves
past either edge.  A step is one elementwise 2x2 update of the two spin arrays,

    up' = q00 up + q01 dn,   dn' = q10 up + q11 dn,   then shift,

with the coin entries read as rows of the operator's coin table.

``evolve`` returns the state on its window padded by t + 1 sites, the most
the walker can travel.  The shift moves every amplitude by exactly one site,
so the two parity chains, the sites at even and at odd offsets from the
state's n_lo, never mix.  After s steps chain c covers the sites
n_lo + c - s + 2m, m = 0 .. m0 + s - 1: its whole light cone.  In that moving
frame spin-up moves from m to m + 1 and spin-down stays at m, so each chain
steps in place on two arrays with no shift copy, and a chain that starts at
zero is not stepped at all.  Its sites at step s share the parity of
n_lo + c - s, so each step reads contiguous rows of the even-site or of the
odd-site coins, split from the coin table once per call.  The certificates:

* once per operator: every coin of the table is unitary to 1e-13;
* every ``WalkOperator.step``: no more than 1e-18 of probability crosses
  the window's absorbing edges (``evolve`` meets no edge: each chain's
  arrays hold every site it can reach);
* once per ``evolve`` call (each checkpoint of ``cmvlab walk``): the norm
  squared lies within 1e-10 of 1, the bound every ``WalkState`` meets, so a
  larger drift is a numerical failure (``NumericalInstabilityError``), not
  an invalid state.

Every probability is |psi|^2 of ``coefficients._abs2``: the norm squared
is one numpy sum of it over the window, and the survival probability one
sum over the window's rows at sites |j| <= J.  States are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientSequence, _abs2, _rho
from .errors import CoinGaugeError, NumericalInstabilityError
from .operator import cmv_banded, shift_seq, sieve

__all__ = [
    "CoinSequence",
    "WalkState",
    "WalkOperator",
    "CMVRepresentation",
    "build_walk",
    "to_cmv",
    "evolve",
    "survival_probability",
    "constant_coins",
    "identity_coins",
    "hadamard_coins",
    "table_coins",
    "cgmv_coins",
]

_UNITARY_TOL = 1e-13
_NORM_TOL = 1e-10  # |norm^2 - 1| of every state, checked after every evolve


@dataclass(frozen=True)
class CoinSequence:
    """A map from integer sites to 2x2 coins, read over arrays of sites.

    ``fn`` takes an integer array of sites and returns their coins with
    shape sites.shape + (2, 2); a call refuses any other shape.
    ``period``, when set, promises that the coins repeat with it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    period: Optional[int] = None

    def __call__(self, n) -> np.ndarray:
        """The coins at the integer site, or integer array of sites, n."""
        n = np.asarray(n)
        q = np.asarray(self.fn(n), dtype=complex)
        if q.shape != n.shape + (2, 2):
            raise ValueError(f"coin map must return shape {n.shape + (2, 2)}, got {q.shape}")
        return q


def _unitary(q: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """The coins q (..., 2, 2) at ``sites``, each checked unitary to 1e-13
    (NaN fails); ValueError names the first site that is not."""
    res = np.ravel(np.max(np.abs(q @ q.conj().swapaxes(-1, -2) - np.eye(2)), axis=(-2, -1)))
    bad = np.flatnonzero(~(res <= _UNITARY_TOL))
    if bad.size:
        j = bad[0]
        raise ValueError(f"coin at site {int(np.ravel(sites)[j])} is not unitary "
                         f"(residual {res[j]:.2e})")
    return q


def table_coins(table) -> CoinSequence:
    """Coins of period P from a (P, 2, 2) table: site n takes table[n mod P]."""
    t = np.array(table, dtype=complex)
    t.flags.writeable = False
    return CoinSequence(fn=lambda n: t[n % len(t)], period=len(t))


def constant_coins(q: np.ndarray) -> CoinSequence:
    return table_coins([q])


def identity_coins() -> CoinSequence:
    return constant_coins(np.eye(2))


def hadamard_coins() -> CoinSequence:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return constant_coins(h)


def cgmv_coins(gamma: CoefficientSequence) -> CoinSequence:
    """Coins [[rho, -g], [conj(g), rho]] of the gauge parameters g_n =
    gamma(n), rho = sqrt(1 - |g|^2); they carry gamma's period."""

    def fn(n: np.ndarray) -> np.ndarray:
        g = gamma.window(n)
        r = _rho(g)
        return np.stack([r, -g, g.conj(), r], axis=-1).reshape(g.shape + (2, 2))

    return CoinSequence(fn=fn, period=gamma.period)


@dataclass(frozen=True)
class WalkState:
    """Amplitudes (psi_n^+, psi_n^-) on the window [n_lo, n_lo + len)."""

    n_lo: int
    amplitudes: np.ndarray  # (W, 2) complex

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[1] != 2 or amp.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (W, 2), got {amp.shape}")
        nrm = float(np.sum(_abs2(amp)))
        if not abs(nrm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm^2 must be 1 to {_NORM_TOL:g}, got {nrm}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_hi(self) -> int:
        return self.n_lo + self.amplitudes.shape[0] - 1

    @classmethod
    def delta(cls, site: int, spin: str, pad: int = 2) -> "WalkState":
        if spin not in ("+", "-"):
            raise ValueError("spin must be '+' or '-'")
        W = 2 * pad + 1
        amp = np.zeros((W, 2), dtype=complex)
        amp[pad, 0 if spin == "+" else 1] = 1.0
        return cls(n_lo=site - pad, amplitudes=amp)

    def amplitude(self, site: int, spin: str) -> complex:
        if not self.n_lo <= site <= self.n_hi:
            return 0j
        return complex(self.amplitudes[site - self.n_lo, 0 if spin == "+" else 1])

    def norm2(self) -> float:
        return float(np.sum(_abs2(self.amplitudes)))

    def survival(self, J: int) -> float:
        """Probability of finding the walker in sites |j| <= J: one sum over
        the rows of the window that lie there."""
        if J < 0:
            raise ValueError(f"J must be >= 0, got {J}")
        rows = self.amplitudes[max(-J - self.n_lo, 0):max(J + 1 - self.n_lo, 0)]
        return float(np.sum(_abs2(rows)))


@dataclass(frozen=True)
class WalkOperator:
    """U = S Q on the sites [n_lo, n_hi].

    ``table`` holds the (W, 2, 2) coins of the window, read and checked for
    unitarity once at construction.  ``matrix`` is the cyclic window;
    ``step`` absorbs what the shift moves past either edge and refuses to
    lose more than 1e-18 of probability that way.
    """

    coins: CoinSequence
    n_lo: int
    n_hi: int
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_hi < self.n_lo:
            raise ValueError("window must be nonempty")
        # one read: over one period from n_lo, tiled, for periodic coins
        W = self.n_hi - self.n_lo + 1
        p = min(self.coins.period or W, W)
        sites = np.arange(self.n_lo, self.n_lo + p)
        one = _unitary(self.coins(sites), sites)
        table = one[np.arange(W) % p]
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def width(self) -> int:
        return self.n_hi - self.n_lo + 1

    def matrix(self) -> np.ndarray:
        """Dense cyclic 2W x 2W matrix, site-major ordering (n,+), (n,-)."""
        W = self.width
        U = np.zeros((2 * W, 2 * W), dtype=complex)
        for j, q in enumerate(self.table):
            for spin_in in (0, 1):
                col = 2 * j + spin_in
                U[2 * ((j + 1) % W) + 0, col] += q[0, spin_in]
                U[2 * ((j - 1) % W) + 1, col] += q[1, spin_in]
        return U

    def step(self, state: WalkState) -> WalkState:
        if state.n_lo != self.n_lo or state.n_hi != self.n_hi:
            raise ValueError("state window must match the operator window")
        psi = _absorbing_step(_coin_columns(self.table), state.amplitudes.T)
        return WalkState(n_lo=state.n_lo, amplitudes=psi.T)


def _coin_columns(table: np.ndarray) -> np.ndarray:
    """The (W, 2, 2) coins of a window as (2, 2, W): q[a, b] holds entry
    [a, b] of every coin."""
    return np.ascontiguousarray(table.transpose(1, 2, 0))


def _absorbing_step(q: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One step of U = S Q on W sites with absorbing edges.

    ``psi`` (2, W) holds the spin-up and spin-down amplitudes, ``q`` the
    coins of the same sites (``_coin_columns``).  The coin acts elementwise,
    up' = q00 up + q01 dn and dn' = q10 up + q11 dn; then up' moves one site
    right and dn' one site left.  What would leave the W sites is refused
    beyond 1e-18 of probability.
    """
    mixed = q[:, 0] * psi[0]
    mixed += q[:, 1] * psi[1]
    lost = _abs2(mixed[0, -1]) + _abs2(mixed[1, 0])
    if not lost <= 1e-18:
        raise NumericalInstabilityError(
            f"amplitude {lost:.2e} hit the absorbing boundary; enlarge the window"
        )
    out = np.empty_like(mixed)
    out[0, 0] = out[1, -1] = 0.0
    out[0, 1:] = mixed[0, :-1]
    out[1, :-1] = mixed[1, 1:]
    return out


def build_walk(coins: CoinSequence, window: tuple[int, int]) -> WalkOperator:
    """Walk operator on the sites window[0]..window[1]."""
    n_lo, n_hi = window
    return WalkOperator(coins=coins, n_lo=int(n_lo), n_hi=int(n_hi))


def evolve(state: WalkState, walk: WalkOperator, t: int) -> WalkState:
    """State after t steps of U = S Q with the walk's coins.

    The result lives on the state's window padded by t + 1 sites on both
    sides, equal entry for entry to t ``WalkOperator.step`` calls there.
    Chain c = 0, 1 holds the state's sites n_lo + c, n_lo + c + 2, ...; after
    s steps they sit at padded index pad + c - s + 2m, m = 0 .. m0 + s - 1,
    which covers every site the chain's amplitudes can reach.  So nothing is
    truncated and no step needs an edge check; ``WalkOperator.step`` keeps
    its check because a fixed window does absorb.  Spin-up moves from m to
    m + 1 and spin-down stays at m: ``up`` is stored at offset t - s and
    ``dn`` at m, and each step updates both in place, with the coin as the
    first operand of every product as in ``_absorbing_step``, so each
    amplitude has the bits of the full-window step.  A chain that starts
    exactly zero stays zero and is skipped.  The result's norm squared must
    lie within 1e-10 of 1, the bound of every ``WalkState``; it is checked
    once (NaN fails) and a larger drift raises NumericalInstabilityError.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return state
    pad = t + 1
    op = build_walk(walk.coins, (state.n_lo - pad, state.n_hi + pad))
    # rows[p] holds q00, q01, q10, q11 of the padded sites 2j + p, contiguous
    q = _coin_columns(op.table).reshape(4, -1)
    rows = [tuple(np.ascontiguousarray(q[:, p::2])) for p in (0, 1)]
    amp = np.zeros((op.width, 2), dtype=complex)
    for c in (0, 1):
        chain = state.amplitudes[c::2]
        if not chain.any():
            continue  # an empty chain stays exactly zero
        m0 = chain.shape[0]
        # up at chain site m after s steps is up[t - s + m], dn is dn[m]
        up, dn = np.zeros((2, m0 + t), dtype=complex)
        up[t:], dn[:m0] = chain.T
        tmp_buf, prod_buf = np.empty((2, m0 + t), dtype=complex)
        for s in range(t):
            L = m0 + s
            i = pad + c - s  # padded index of chain site 0, of parity i & 1
            j = i >> 1
            r00, r01, r10, r11 = rows[i & 1]
            q00, q01, q10, q11 = r00[j:j + L], r01[j:j + L], r10[j:j + L], r11[j:j + L]
            U, D = up[t - s:t - s + L], dn[:L]
            tmp, prod = tmp_buf[:L], prod_buf[:L]
            np.multiply(q10, U, out=tmp)
            np.multiply(q00, U, out=U)
            U += np.multiply(q01, D, out=prod)
            np.multiply(q11, D, out=D)
            D += tmp
        amp[1 + c:1 + c + 2 * (m0 + t):2] = np.stack([up, dn], axis=1)
    # the same sum in the same order as the result's norm2()
    drift = abs(float(np.sum(_abs2(amp))) - 1.0)
    if not drift <= _NORM_TOL:
        raise NumericalInstabilityError(
            f"norm drifted by {drift:.2e} after {t} steps (bound {_NORM_TOL:g})"
        )
    return WalkState(n_lo=op.n_lo, amplitudes=amp)


def survival_probability(
    state0: WalkState, walk: WalkOperator, J: int, t: int
) -> float:
    """Probability of finding the walker in sites |j| <= J at time t."""
    if J < 0:
        raise ValueError(f"J must be >= 0, got {J}")
    return evolve(state0, walk, t).survival(J)


# ---------------------------------------------------------------------------
# CGMV correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMVRepresentation:
    """The walk operator rewritten as a CMV matrix.

    ``seq`` is the extracted coefficient sequence in global flat indexing;
    ``matrix`` is the transpose of U on the window, in the CMV basis order
    and the cyclic (5, 2W) banded form of ``cmv_banded``; ``residual`` is
    its entrywise deviation from the CMV window assembled out of ``seq``.
    """

    seq: CoefficientSequence
    matrix: np.ndarray
    window: tuple[int, int]
    residual: float


_GAUGE_RULES = ("upper-left entry must be real and positive",
                "diagonal entries must coincide",
                "off-diagonal entries must satisfy b = -conj(c)")


def _gauge_gammas(q: np.ndarray, sites: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """The gauge parameters conj(q[1, 0]) of the coins q (..., 2, 2) at
    ``sites``, every coin checked for the form [[rho, -g], [conj(g), rho]];
    CoinGaugeError names the first site that fails and its first rule."""
    a, b, c, d = q[..., 0, 0], q[..., 0, 1], q[..., 1, 0], q[..., 1, 1]
    bad = np.stack([(np.abs(a.imag) > tol) | (a.real <= 0),
                    np.abs(a - d) > tol,
                    np.abs(b + c.conj()) > tol]).reshape(3, -1)
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size:
        j = hit[0]
        raise CoinGaugeError(int(np.ravel(sites)[j]), _GAUGE_RULES[int(np.argmax(bad[:, j]))])
    return c.conj()


def _banded_transpose(table: np.ndarray) -> np.ndarray:
    """U^T of the cyclic walk window over a (W, 2, 2) coin table, in the
    banded form of ``cmv_banded``: row 2 + d holds entry (j + d mod 2W, j).

    U moves coin k's first row to site k + 1 (flat column 2k + 2 of U^T) and
    its second row to site k - 1 (flat column 2k - 1), so even columns hold
    the previous coin's first row at d = -2, -1 and odd columns the next
    coin's second row at d = 1, 2.
    """
    ab = np.zeros((5, 2 * len(table)), dtype=complex)
    ab[0:2, 0::2] = np.roll(table[:, 0], 1, axis=0).T
    ab[3:5, 1::2] = np.roll(table[:, 1], -1, axis=0).T
    return ab


def to_cmv(
    coins: CoinSequence, window: tuple[int, int] = (0, 15)
) -> CMVRepresentation:
    """Extract the CMV coefficients of a gauge-conforming coin sequence.

    The coefficients are alpha_hat = shift_seq(sieve(gamma), -2), that is
    alpha_hat_{2n+1} = gamma_n and alpha_hat_{2n} = 0, where gamma_n =
    conj(Q_n[1, 0]) is read from the coins, each checked for unitarity and
    the gauge form at every site read, inside the window or past it.  The
    correspondence is verified on the window in O(W): the walk's cyclic
    window, transposed and in banded form, must match entry by entry the
    periodic-wrap CMV window of alpha_hat.
    """
    n_lo, n_hi = int(window[0]), int(window[1])
    if n_hi <= n_lo:
        raise ValueError("window must contain at least two sites")
    walk = build_walk(coins, (n_lo, n_hi))
    _gauge_gammas(walk.table, np.arange(n_lo, n_hi + 1))
    gamma = CoefficientSequence(fn=lambda n: _gauge_gammas(_unitary(coins(n), n), n),
                                period=coins.period)
    seq = shift_seq(sieve(gamma), -2)
    lo = 2 * n_lo + 1  # the flat index of (n_lo, +)
    ref = cmv_banded(seq.window(lo, lo + 2 * walk.width))
    ut = _banded_transpose(walk.table)
    return CMVRepresentation(seq=seq, matrix=ut, window=(n_lo, n_hi),
                             residual=float(np.max(np.abs(ut - ref))))
