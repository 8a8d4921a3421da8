"""Exception types shared across the toolkit, and the one collector of the
certificates that its checks compute (``certificates``, ``note``, ``record``).
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np


class NumericalInstabilityError(RuntimeError):
    """A computation could not be certified at the requested tolerance."""


class TruncationInstabilityError(NumericalInstabilityError):
    """The Weyl disk of a half-line value on its window is too wide to certify it."""


class DegenerateBandError(NumericalInstabilityError):
    """Two Floquet eigenvalues are too close to separate into band branches."""

    def __init__(self, k: float, gap: float):
        self.k = k
        self.gap = gap
        super().__init__(
            f"near-degenerate Floquet eigenvalues at k={k!r} (gap {gap:.3e})"
        )


class WeylDenominatorError(NumericalInstabilityError):
    """The M_minus denominator is numerically zero."""


class CoinGaugeError(ValueError):
    """A coin does not admit the CMV-compatible gauge at some site."""

    def __init__(self, site: int, message: str):
        self.site = site
        super().__init__(f"coin at site {site}: {message}")


_CERTIFICATES: contextvars.ContextVar = contextvars.ContextVar("certificates", default=None)


@contextlib.contextmanager
def certificates():
    """Collect the certificates of the checks run in the block.

    Yields a dict that receives, for each certificate checked, its worst
    value over the calls with its tolerance and where it occurs:
    ``max_band_residual`` (an eigenpair residual of ``floquet.band_stacks``,
    at k and pair n), ``min_band_gap`` (the distance from z_n(k) to
    z_{n+1}(k), at k and n), ``max_edge_residual`` (the eigenpair residual
    of a band edge of ``floquet.periodic_spectrum``, at k = 0 or pi/q and the
    edge angle theta), and, of ``weyl``'s half-line values, at the angle
    theta and modulus r of the point, ``max_disk_diameter`` (the Weyl disk),
    ``min_signed_real_part`` (the real part before m_minus's sign flip) and
    ``min_minus_denominator`` (|den| of M_minus).  The last Birkhoff
    ``transfer.lyapunov`` call leaves ``lanes``, the number of orbit lanes
    its kernel ran, and, with n_steps >= 2, ``half_orbit``: (n_half, the
    growth rates over the first n_half sites), a float for a scalar z.
    Outside any block nothing is kept; a nested block collects apart and
    then restores the outer one.
    """
    kept: dict = {}
    token = _CERTIFICATES.set(kept)
    try:
        yield kept
    finally:
        _CERTIFICATES.reset(token)


def record(name: str, value) -> None:
    """Keep ``value`` under ``name`` in the dict of the open ``certificates`` block."""
    kept = _CERTIFICATES.get()
    if kept is not None:
        kept[name] = value


def note(name: str, values: np.ndarray, tol: float, where, smallest: bool = False
         ) -> None:
    """Keep the worst of ``values`` (the largest, or the smallest) under
    ``name`` in the dict of the open ``certificates`` block, with its
    tolerance and ``where(*index)``, if it is worse than the value kept there."""
    kept = _CERTIFICATES.get()
    if kept is None or values.size == 0:
        return
    i = np.unravel_index(np.argmin(values) if smallest else np.argmax(values), values.shape)
    value = float(values[i])
    old = kept.get(name)
    if old is None or (value < old["value"] if smallest else value > old["value"]):
        kept[name] = {"value": value, "tol": tol, **where(*i)}
