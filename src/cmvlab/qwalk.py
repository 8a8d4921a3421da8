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

A walk operator on a finite window of sites has two views: its matrix is the
cyclic window (the shift wraps around), which ``to_cmv`` compares with a
periodic-wrap CMV window, and its step absorbs what the shift moves past
either edge.  A step is one elementwise 2x2 update of the two spin arrays,

    up' = q00 up + q01 dn,   dn' = q10 up + q11 dn,   then shift,

with the coin entries read as rows of the operator's coin table.

``evolve`` returns the state on its window padded by t + 1 sites, the most
the walker can travel.  The shift moves every amplitude by exactly one site,
so the two parity chains, the sites at even and at odd offsets from the
state's n_lo, never mix.  After s steps chain c covers the sites
n_lo + c - s + 2m, m = 0 .. m0 + s - 1: its whole light cone.  In that moving
frame spin-up moves from m to m + 1 and spin-down stays at m, so each chain
steps in place on two arrays with no shift copy, and a chain that starts at
zero is not stepped at all.  The certificates:

* once per operator: every coin of the table is unitary to 1e-13;
* every ``WalkOperator.step``: no more than 1e-18 of probability crosses
  the window's absorbing edges (``evolve`` meets no edge: each chain's
  arrays hold every site it can reach);
* once per ``evolve`` call (each checkpoint of ``cmvlab walk``): the norm has
  drifted by at most 1e-9 per step.

States are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientSequence
from .errors import CoinGaugeError, NumericalInstabilityError
from .operator import assemble_cmv

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
    "cgmv_coins",
]

_UNITARY_TOL = 1e-13


@dataclass(frozen=True)
class CoinSequence:
    """A map n -> 2x2 unitary coin; period metadata optional."""

    fn: Callable[[int], np.ndarray]
    period: Optional[int] = None

    def __call__(self, n: int) -> np.ndarray:
        q = np.asarray(self.fn(n), dtype=complex)
        if q.shape != (2, 2):
            raise ValueError(f"coin at site {n} must be 2x2, got {q.shape}")
        return q

    def check_unitary(self, n: int) -> np.ndarray:
        q = self(n)
        res = np.max(np.abs(q @ q.conj().T - np.eye(2)))
        if not res <= _UNITARY_TOL:
            raise ValueError(f"coin at site {n} is not unitary (residual {res:.2e})")
        return q


def constant_coins(q: np.ndarray) -> CoinSequence:
    q = np.asarray(q, dtype=complex)
    return CoinSequence(fn=lambda n: q, period=1)


def identity_coins() -> CoinSequence:
    return constant_coins(np.eye(2))


def hadamard_coins() -> CoinSequence:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return constant_coins(h)


def cgmv_coins(gamma: Callable[[int], complex],
               period: Optional[int] = None) -> CoinSequence:
    """Coins [[rho, -g], [conj(g), rho]] from a disk-valued map n -> g_n."""

    def fn(n: int) -> np.ndarray:
        g = complex(gamma(n))
        if abs(g) >= 1.0:
            raise ValueError(f"|gamma({n})| must be < 1, got {abs(g)}")
        rho = math.sqrt(1.0 - abs(g) ** 2)
        return np.array([[rho, -g], [g.conjugate(), rho]], dtype=complex)

    return CoinSequence(fn=fn, period=period)


@dataclass(frozen=True)
class WalkState:
    """Amplitudes (psi_n^+, psi_n^-) on the window [n_lo, n_lo + len)."""

    n_lo: int
    amplitudes: np.ndarray  # (W, 2) complex

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[1] != 2 or amp.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (W, 2), got {amp.shape}")
        nrm = float(np.sum(np.abs(amp) ** 2))
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"state norm^2 must be 1 to 1e-10, got {nrm}")
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
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def survival(self, J: int) -> float:
        """Probability of finding the walker in sites |j| <= J."""
        if J < 0:
            raise ValueError(f"J must be >= 0, got {J}")
        total = 0.0
        for j in range(-J, J + 1):
            total += abs(self.amplitude(j, "+")) ** 2
            total += abs(self.amplitude(j, "-")) ** 2
        return total


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
        # a periodic sequence is read over one period from n_lo and tiled
        W = self.n_hi - self.n_lo + 1
        p = self.coins.period or W
        one = np.stack([self.coins(n) for n in range(self.n_lo, self.n_lo + min(p, W))])
        res = np.max(np.abs(one @ one.conj().swapaxes(1, 2) - np.eye(2)),
                     axis=(1, 2))
        bad = np.flatnonzero(~(res <= _UNITARY_TOL))  # NaN fails
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"coin at site {self.n_lo + j} is not unitary "
                             f"(residual {res[j]:.2e})")
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
    lost = abs(mixed[0, -1]) ** 2 + abs(mixed[1, 0]) ** 2
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
    exactly zero stays zero and is skipped.  The norm drift, at most
    1e-9 * t, is checked once on the result (NaN fails).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return state
    pad = t + 1
    op = build_walk(walk.coins, (state.n_lo - pad, state.n_hi + pad))
    q = _coin_columns(op.table)
    amp = np.zeros((op.width, 2), dtype=complex)
    for c in (0, 1):
        chain = state.amplitudes[c::2]
        if not chain.any():
            continue  # an empty chain stays exactly zero
        m0 = chain.shape[0]
        # up at chain site m after s steps is up[t - s + m], dn is dn[m]
        up, dn = np.zeros((2, m0 + t), dtype=complex)
        up[t:], dn[:m0] = chain.T
        scratch = np.empty((2, m0 + t), dtype=complex)
        for s in range(t):
            L = m0 + s
            i = pad + c - s  # padded index of chain site 0
            q00, q01, q10, q11 = q[..., i:i + 2 * L:2].reshape(4, L)
            U, D = up[t - s:t - s + L], dn[:L]
            tmp, prod = scratch[:, :L]
            np.multiply(q10, U, out=tmp)
            np.multiply(q00, U, out=U)
            U += np.multiply(q01, D, out=prod)
            np.multiply(q11, D, out=D)
            D += tmp
        amp[1 + c:1 + c + 2 * (m0 + t):2] = np.stack([up, dn], axis=1)
    # the same sum in the same order as the result's norm2()
    drift = abs(float(np.sum(np.abs(amp) ** 2)) - 1.0)
    if not drift <= 1e-9 * t:
        raise NumericalInstabilityError(
            f"norm drifted by {drift:.2e} after {t} steps"
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
    ``matrix`` is U on the window in the CMV basis order; ``residual`` is the
    entrywise deviation from the CMV window assembled out of ``seq``.
    """

    seq: CoefficientSequence
    matrix: np.ndarray
    window: tuple[int, int]
    residual: float


def _gauge_gamma(q: np.ndarray, site: int, tol: float = 1e-12) -> complex:
    a, b, c, d = q[0, 0], q[0, 1], q[1, 0], q[1, 1]
    if abs(a.imag) > tol or a.real <= 0:
        raise CoinGaugeError(site, "upper-left entry must be real and positive")
    if abs(a - d) > tol:
        raise CoinGaugeError(site, "diagonal entries must coincide")
    if abs(b + c.conjugate()) > tol:
        raise CoinGaugeError(site, "off-diagonal entries must satisfy b = -conj(c)")
    return c.conjugate()


def to_cmv(
    coins: CoinSequence, window: tuple[int, int] = (0, 15)
) -> CMVRepresentation:
    """Extract the CMV coefficients of a gauge-conforming coin sequence.

    Verifies the correspondence on the window: the walk matrix in the CMV
    basis order must match, entry by entry, the wrapped CMV window built from
    the extracted coefficients.
    """
    n_lo, n_hi = int(window[0]), int(window[1])
    if n_hi <= n_lo:
        raise ValueError("window must contain at least two sites")
    gammas = {}
    for n in range(n_lo, n_hi + 1):
        q = coins.check_unitary(n)
        gammas[n] = _gauge_gamma(q, n)

    def alpha_hat(m: int) -> complex:
        if m % 2 == 0:
            return 0j
        site = (m - 1) // 2
        if site in gammas:
            return gammas[site]
        return _gauge_gamma(coins.check_unitary(site), site)

    bound = max(abs(g) for g in gammas.values()) if gammas else 0.0
    period = 2 * coins.period if coins.period is not None else None
    seq = CoefficientSequence(
        fn=alpha_hat,
        sup_norm_bound=min(bound, 1.0 - 1e-15),
        period=period,
    )

    walk = build_walk(coins, (n_lo, n_hi))
    U = walk.matrix()
    shift = 2 * n_lo + 1
    local = CoefficientSequence(
        fn=lambda m: alpha_hat(m + shift),
        sup_norm_bound=seq.sup_norm_bound,
        period=None,
    )
    ref = assemble_cmv(local, 0, 2 * walk.width).entries
    residual = float(np.max(np.abs(U.T - ref)))
    return CMVRepresentation(
        seq=seq, matrix=U, window=(n_lo, n_hi), residual=residual
    )
