"""Verblunsky coefficient sequences.

Constructors for the concrete families used throughout the toolkit: constants,
quasiperiodic phases, periodizations, and limit-periodic families built from
super-exponentially small periodic increments.  Each sequence is one map over
integer arrays of sites, read through ``window``.  Sequences are immutable
values and safe to share across threads; ``cli`` reads their config specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "CoefficientSequence",
    "LimitPeriodicFamily",
    "constant_seq",
    "quasiperiodic_seq",
    "periodic_table_seq",
    "periodize",
    "pastur_tkachenko_family",
    "lp_sum_criterion",
]


def _check_disk(a):
    """The alpha array or scalar ``a``, each value checked to lie in the
    open unit disk: ValueError names the largest modulus otherwise."""
    big = np.max(np.abs(a), initial=0.0)
    if not big < 1.0:  # NaN fails too
        raise ValueError(f"|alpha| must be < 1, got {big}")
    return a


def _abs2(x):
    """|x|^2 of a complex array or scalar as re * re + im * im: the one
    modulus squared of cmvlab (rho, walk probabilities and norms, Weyl
    disks), correct to a few ulp and with no square root."""
    return x.real * x.real + x.imag * x.imag


def _rho(a):
    """sqrt(1 - |a|^2) of an alpha array or scalar, |a|^2 from ``_abs2`` as
    in the transfer kernel's log rho; clipped at 0, since |a|^2 of an |a|
    just below 1 may round up to 1."""
    return np.sqrt(np.maximum(0.0, 1.0 - _abs2(a)))


@dataclass(frozen=True)
class CoefficientSequence:
    """A map n -> alpha_n into the open unit disk, read over arrays of sites.

    ``fn`` takes an integer array of sites and returns alpha at each site,
    with the array's shape; ``window`` is the one way to read it and refuses
    any other shape.  The values must lie in the open unit disk; every
    reader checks those it reads with ``_check_disk``.
    ``period``, when set, promises alpha_{n + period} == alpha_n exactly.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    period: Optional[int] = None

    def __post_init__(self):
        if self.period is not None and self.period < 1:
            raise ValueError(f"period must be a positive integer, got {self.period}")

    def __call__(self, n: int) -> complex:
        """alpha_n, a one-site window."""
        return complex(self.window(n))

    def rho(self, n: int) -> float:
        """sqrt(1 - |alpha_n|^2), derived on demand."""
        return float(_rho(_check_disk(self(n))))

    def window(self, lo, hi: Optional[int] = None) -> np.ndarray:
        """Values alpha_n for n in [lo, hi), or, without hi, at the integer array lo.

        The result has the shape of the sites read.
        """
        sites = np.arange(lo, hi) if hi is not None else np.asarray(lo)
        out = np.asarray(self.fn(sites), dtype=complex)
        if out.shape != sites.shape:
            raise ValueError(f"sequence map must return shape {sites.shape}, got {out.shape}")
        return out


def constant_seq(a: complex) -> CoefficientSequence:
    """The sequence alpha_n = a for all n (period 1)."""
    a = _check_disk(complex(a))
    return CoefficientSequence(fn=lambda n: np.full(n.shape, a), period=1)


def quasiperiodic_seq(lam: float, beta: float, theta: float) -> CoefficientSequence:
    """alpha_n = lam * exp(2*pi*i*(n*beta + theta)); no period metadata."""
    lam, b, t = float(lam), float(beta), float(theta)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"amplitude must lie in [0, 1), got {lam}")
    return CoefficientSequence(fn=lambda n: lam * np.exp(2j * np.pi * (n * b + t)))


def periodic_table_seq(values: Sequence[complex]) -> CoefficientSequence:
    """Periodic sequence from an explicit table of one period of values."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or len(vals) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    _check_disk(vals)
    q = len(vals)
    table = vals.copy()
    table.flags.writeable = False
    return CoefficientSequence(fn=lambda n: table[n % q], period=q)


def periodize(seq: CoefficientSequence, q: int) -> CoefficientSequence:
    """Repeat seq's values on [0, q) over all of Z; result has period q."""
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    return periodic_table_seq(seq.window(0, q))


# ---------------------------------------------------------------------------
# limit-periodic families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitPeriodicFamily:
    """A finite chain of periodic sequences whose limit is its last stage.

    stages[n] has period q_n with q_n | q_{n+1}.  The limit is stages[-1], so
    the tail of every stage-difference series past the last stage is zero.
    """

    stages: tuple[CoefficientSequence, ...]

    def __post_init__(self):
        if len(self.stages) == 0:
            raise ValueError("family needs at least one stage")
        periods = self.periods()
        for qa, qb in zip(periods, periods[1:]):
            if qb % qa != 0:
                raise ValueError(f"stage periods must divide: {qa} does not divide {qb}")

    def periods(self) -> tuple[int, ...]:
        ps = []
        for s in self.stages:
            if s.period is None:
                raise ValueError("every stage must carry period metadata")
            ps.append(s.period)
        return tuple(ps)

    @property
    def limit(self) -> CoefficientSequence:
        return self.stages[-1]


def pastur_tkachenko_family(
    base_amp: float,
    decay: Optional[Callable[[int], float]] = None,
    q0: int = 2,
    levels: int = 3,
) -> LimitPeriodicFamily:
    """Limit-periodic family with periods q_n = q0 * 2^n and tiny increments.

    Stage 0 is the constant sequence ``base_amp``; stage n+1 adds the
    increment decay(n) * cos(2*pi*j / q_{n+1}).  The default decay,
    base_amp * exp(-q_{n+1}^2), shrinks faster than every exponential in the
    period.  The family's limit is its last stage, so the tail beyond it is
    zero.
    """
    base_amp = float(base_amp)
    if not 0.0 <= base_amp < 1.0:
        raise ValueError(f"base_amp must lie in [0, 1), got {base_amp}")
    if q0 < 2 or q0 % 2 != 0:
        raise ValueError(f"q0 must be a positive even integer, got {q0}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    # refused before any amplitude: the decay forms overflow a float, and the
    # sites of a larger period overflow int64
    if q0 * 2 ** levels > 2 ** 62:
        raise ValueError(f"the largest period q0 * 2**levels must be at most 2**62, "
                         f"got q0 = {q0}, levels = {levels}")

    periods = [q0 * 2 ** n for n in range(levels + 1)]
    if decay is None:
        def decay(n: int) -> float:
            return base_amp * math.exp(-float(q0 * 2 ** (n + 1)) ** 2)
    amps = [float(decay(n)) for n in range(levels)]
    if any(a < 0 for a in amps):
        raise ValueError("decay amplitudes must be nonnegative")
    total = base_amp + sum(amps)
    if total >= 1.0:
        raise ValueError(
            f"base_amp plus increment amplitudes must stay below 1, got {total}"
        )

    # each site's sum runs over m in order, as one scalar sum would
    stages = []
    for n, qn in enumerate(periods):
        j, vals = np.arange(qn), np.full(qn, base_amp)
        for m in range(n):
            vals += amps[m] * np.cos(2.0 * np.pi * j / periods[m + 1])
        stages.append(periodic_table_seq(vals))

    return LimitPeriodicFamily(stages=tuple(stages))


def lp_sum_criterion(
    family: LimitPeriodicFamily,
    k: int,
    sigma_k_measure: float,
) -> dict:
    """Check sum_{n>k} q_n * ||E_n - E_{n-1}|| < measure(Sigma_k) / 2.

    Each norm is ``floquet.norm_diff`` on a window of four times the last
    stage's period: the largest difference of the two stages' Floquet blocks
    over that window's phases.  The family's limit is its last stage, so the
    sum has no tail.
    """
    from . import floquet as _floquet

    stages = family.stages
    if not 0 <= k < len(stages):
        raise ValueError(f"stage index k={k} outside 0..{len(stages) - 1}")
    periods = family.periods()

    # one window size for every term: a multiple of the largest period is a
    # multiple of each stage pair's common period, so each term stays exact
    dim = 4 * periods[-1]
    lhs = 0.0
    for n in range(k + 1, len(stages)):
        lhs += periods[n] * _floquet.norm_diff(stages[n], stages[n - 1], dim)

    rhs = 0.5 * float(sigma_k_measure)
    return {"holds": lhs < rhs, "lhs": lhs, "rhs": rhs}
