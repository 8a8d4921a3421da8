"""Reference copy of the fixed-window walk operator and its absorbing step,
formerly cmvlab.qwalk.WalkOperator, build_walk, _absorbing_step and
_coin_columns.

cmvlab.qwalk.evolve must equal t of these steps on its padded window bit for
bit; see test_qwalk.py.  Only this docstring and the package imports differ
from the package version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cmvlab.coefficients import _abs2
from cmvlab.errors import NumericalInstabilityError
from cmvlab.qwalk import CoinSequence, WalkState, _unitary


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
