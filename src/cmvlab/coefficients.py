"""Verblunsky coefficient sequences.

Constructors for the concrete families used throughout the toolkit: constants,
quasiperiodic phases, periodizations, and limit-periodic families built from
super-exponentially small periodic increments.  Sequences are immutable values
and safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
import sys
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
    "sequence_from_spec",
    "sequence_to_spec",
    "family_from_spec",
]


@dataclass(frozen=True)
class CoefficientSequence:
    """A map n -> alpha_n into the open unit disk.

    ``sup_norm_bound`` certifies sup_n |alpha_n| <= sup_norm_bound < 1.
    ``period``, when set, promises fn(n + period) == fn(n) exactly.
    ``spec`` optionally carries a JSON-serializable construction record.
    ``fn_array``, when set, is fn vectorised over an integer array of sites;
    ``window`` uses it, and falls back to one fn call per site without it.
    """

    fn: Callable[[int], complex]
    sup_norm_bound: float
    period: Optional[int] = None
    spec: Optional[dict] = None
    fn_array: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 <= self.sup_norm_bound < 1.0:
            raise ValueError(
                f"sup_norm_bound must lie in [0, 1), got {self.sup_norm_bound}"
            )
        if self.period is not None and self.period < 1:
            raise ValueError(f"period must be a positive integer, got {self.period}")

    def __call__(self, n: int) -> complex:
        return complex(self.fn(n))

    def rho(self, n: int) -> float:
        """sqrt(1 - |alpha_n|^2), derived on demand."""
        a = self(n)
        return math.sqrt(max(0.0, 1.0 - (a.real * a.real + a.imag * a.imag)))

    def window(self, lo, hi: Optional[int] = None) -> np.ndarray:
        """Values alpha_n for n in [lo, hi), or, without hi, at the integer array lo.

        The result has the shape of the sites read.
        """
        sites = np.arange(lo, hi) if hi is not None else np.asarray(lo)
        if self.fn_array is not None:
            return np.asarray(self.fn_array(sites), dtype=complex)
        vals = [self.fn(n) for n in sites.ravel().tolist()]
        return np.array(vals, dtype=complex).reshape(sites.shape)


def constant_seq(a: complex) -> CoefficientSequence:
    """The sequence alpha_n = a for all n (period 1)."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"|a| must be < 1, got |a| = {abs(a)}")
    return CoefficientSequence(
        fn=lambda n: a,
        sup_norm_bound=abs(a),
        period=1,
        spec={"kind": "constant", "value": [a.real, a.imag]},
        fn_array=lambda n: np.full(n.shape, a),
    )


def quasiperiodic_seq(lam: float, beta: float, theta: float) -> CoefficientSequence:
    """alpha_n = lam * exp(2*pi*i*(n*beta + theta)); no period metadata."""
    lam = _as_float("amplitude", lam)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"amplitude must lie in [0, 1), got {lam}")

    b, t = _as_float("frequency", beta), _as_float("phase", theta)

    def fn(n: int) -> complex:
        return lam * cmath.exp(2j * math.pi * (n * b + t))

    def fn_array(n: np.ndarray) -> np.ndarray:
        return lam * np.exp(2j * np.pi * (n * b + t))

    return CoefficientSequence(
        fn=fn,
        sup_norm_bound=lam,
        period=None,
        spec={"kind": "quasiperiodic", "amplitude": lam, "frequency": beta,
              "phase": theta},
        fn_array=fn_array,
    )


def periodic_table_seq(values: Sequence[complex]) -> CoefficientSequence:
    """Periodic sequence from an explicit table of one period of values."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or len(vals) == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    bound = float(np.max(np.abs(vals)))
    if bound >= 1.0:
        raise ValueError(f"all |alpha| must be < 1, table max is {bound}")
    q = len(vals)
    table = vals.copy()
    table.flags.writeable = False
    return CoefficientSequence(
        fn=lambda n: complex(table[n % q]),
        sup_norm_bound=bound,
        period=q,
        spec={"kind": "periodic_table",
              "values": [[v.real, v.imag] for v in vals]},
        fn_array=lambda n: table[n % q],
    )


def periodize(seq: CoefficientSequence, q: int) -> CoefficientSequence:
    """Repeat seq's values on [0, q) over all of Z; result has period q."""
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    return periodic_table_seq([seq(j) for j in range(q)])


# ---------------------------------------------------------------------------
# limit-periodic families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitPeriodicFamily:
    """A chain of periodic sequences converging to a limit.

    stages[n] has period q_n with q_n | q_{n+1}.  ``exact_limit`` marks
    families whose limit coincides with the final stage, so the tail of any
    stage-difference series vanishes identically.
    """

    stages: tuple[CoefficientSequence, ...]
    limit: CoefficientSequence
    rate: Optional[Callable[[float], float]] = None
    exact_limit: bool = False

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
    period, so the finite family converges at a super-exponential rate; the
    returned limit is the final stage and the tail beyond it is exactly zero.
    """
    base_amp = float(base_amp)
    if not 0.0 <= base_amp < 1.0:
        raise ValueError(f"base_amp must lie in [0, 1), got {base_amp}")
    if q0 < 2 or q0 % 2 != 0:
        raise ValueError(f"q0 must be a positive even integer, got {q0}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")

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

    stages = []
    for n in range(levels + 1):
        qn = periods[n]
        vals = []
        for j in range(qn):
            v = base_amp
            for m in range(n):
                v += amps[m] * math.cos(2.0 * math.pi * j / periods[m + 1])
            vals.append(v)
        stages.append(periodic_table_seq(vals))

    return LimitPeriodicFamily(
        stages=tuple(stages),
        limit=stages[-1],
        rate=None,
        exact_limit=True,
    )


def lp_sum_criterion(
    family: LimitPeriodicFamily,
    k: int,
    sigma_k_measure: float,
) -> dict:
    """Check sum_{n>k} q_n * ||E_n - E_{n-1}|| < measure(Sigma_k) / 2.

    The sum is evaluated exactly on periodic-wrap windows of four times the
    last stage's period.  The tail beyond the last stage is zero for
    exact-limit families; otherwise it must be certified from the family's
    rate function, and the call refuses without one.
    """
    from . import operator as _operator

    stages = family.stages
    if not 0 <= k < len(stages):
        raise ValueError(f"stage index k={k} outside 0..{len(stages) - 1}")
    periods = family.periods()

    # one window size for every term: a multiple of the largest period is a
    # multiple of each stage pair's common period, so each term stays exact
    dim = 4 * periods[-1]
    lhs = 0.0
    for n in range(k + 1, len(stages)):
        lhs += periods[n] * _operator.norm_diff(stages[n], stages[n - 1], dim)

    if not family.exact_limit:
        if family.rate is None:
            raise ValueError(
                "cannot certify the tail of the stage-difference sum: family has "
                "no rate function and its limit is not marked exact"
            )
        lhs += _certified_tail(family.rate, periods[-1])

    rhs = 0.5 * float(sigma_k_measure)
    return {"holds": lhs < rhs, "lhs": lhs, "rhs": rhs}


def _certified_tail(rate: Callable[[float], float], q_last: int,
                    max_terms: int = 200) -> float:
    # Periods at least double past the last stage, and
    # ||E_n - E_{n-1}|| <= rate(q_{n-1}) + rate(q_n).
    total = 0.0
    prev_term = math.inf
    for j in range(1, max_terms + 1):
        qn = q_last * 2 ** j
        term = qn * (rate(qn // 2) + rate(qn))
        if not term < prev_term:
            raise ValueError("rate function decays too slowly to certify the tail")
        total += term
        if term < 1e-18:
            return total
        prev_term = term
    raise ValueError("tail bound did not converge within the term budget")


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def sequence_to_spec(seq: CoefficientSequence) -> dict:
    if seq.spec is None:
        raise ValueError("sequence carries no serializable construction record")
    return dict(seq.spec)


def _as_int(name: str, value) -> int:
    """A config integer; lists, dicts, bools and non-integral floats are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"config field '{name}' must be an integer, got {value!r}")


def _as_float(name: str, value) -> float:
    """A finite config number; lists, dicts, strings, bools, NaN, the
    infinities and integers beyond the float range are refused."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # refuses NaN, the infinities and huge ints
            return float(value)
        raise ValueError(f"config field '{name}' must be finite, got {value!r}")
    raise ValueError(f"config field '{name}' must be a number, got {value!r}")


def _as_complex(name: str, pair) -> complex:
    """A config [re, im] pair of numbers."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"config field '{name}' must be an [re, im] pair, got {pair!r}")
    return complex(_as_float(name, pair[0]), _as_float(name, pair[1]))


def _check_keys(label: str, d: dict, known: tuple) -> None:
    """Refuse any key of the spec object ``d`` outside ``known``."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(map(repr, unknown))} in {label}; "
                         f"known fields: {', '.join(known)}")


def _field(d: dict, name: str):
    """d[name], or a ValueError naming the missing field and the spec kind."""
    try:
        return d[name]
    except KeyError:
        raise ValueError(
            f"{d.get('kind')!r} spec is missing the field {name!r}"
        ) from None


def family_from_spec(d: dict) -> LimitPeriodicFamily:
    if d.get("kind") != "pt_family":
        raise ValueError(f"expected kind 'pt_family', got {d.get('kind')!r}")
    _check_keys("'pt_family' spec", d, ("kind", "base_amp", "q0", "levels", "decay"))
    base_amp = _as_float("base_amp", _field(d, "base_amp"))
    q0 = _as_int("q0", d.get("q0", 2))
    levels = _as_int("levels", d.get("levels", 3))
    dspec = d.get("decay")
    if dspec is not None and not isinstance(dspec, dict):
        raise ValueError(f"config field 'decay' must be an object, got {dspec!r}")
    if dspec is None or dspec.get("form") == "gaussian":
        _check_keys("'gaussian' decay", dspec or {}, ("form",))
        decay = None
    elif dspec.get("form") == "geometric":
        _check_keys("'geometric' decay", dspec, ("form", "base"))
        base = _as_float("decay.base", dspec.get("base", 4.0))
        if base <= 1.0:
            raise ValueError(f"geometric decay base must exceed 1, got {base}")
        decay = lambda n: base_amp * base ** (-(q0 * 2 ** (n + 1)))  # noqa: E731
    else:
        raise ValueError(f"unknown decay form {dspec.get('form')!r}")
    return pastur_tkachenko_family(base_amp, decay=decay, q0=q0, levels=levels)


def sequence_from_spec(d: dict) -> CoefficientSequence:
    kind = d.get("kind")
    if kind == "constant":
        _check_keys("'constant' spec", d, ("kind", "value"))
        return constant_seq(_as_complex("value", _field(d, "value")))
    if kind == "quasiperiodic":
        _check_keys("'quasiperiodic' spec", d, ("kind", "amplitude", "frequency", "phase"))
        return quasiperiodic_seq(_field(d, "amplitude"), _field(d, "frequency"),
                                 _field(d, "phase"))
    if kind == "periodic_table":
        _check_keys("'periodic_table' spec", d, ("kind", "values"))
        values = _field(d, "values")
        if not isinstance(values, list):
            raise ValueError(f"config field 'values' must be a list, got {values!r}")
        return periodic_table_seq([_as_complex("values", v) for v in values])
    if kind == "pt_family":
        return family_from_spec(d).limit
    raise ValueError(f"unknown sequence kind {kind!r}")
