"""Pentadiagonal unitary windows built from Verblunsky coefficients.

A two-sided CMV operator factors as E = L * M where L and M are direct sums
of 2x2 unitary blocks

    Theta(alpha) = [[conj(alpha), rho], [rho, -alpha]],   rho = sqrt(1-|alpha|^2),

with the block for alpha_n acting on coordinates (n, n+1): even n in L, odd n
in M.  Finite windows wrap periodically: the block at the last odd index
couples the last site back to the first, so the window is unitary and equals
the twisted restriction at Floquet phase k = 0.

The blocks are placed once, by ``_factors``, into banded L and M.  Dense
windows scatter these factors (``_dense``); banded windows multiply them
(``_banded_product``, which also squares the sieved window).

All window objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSequence

__all__ = [
    "BandedUnitary",
    "theta",
    "assemble_lm",
    "assemble_cmv",
    "sieve",
    "shift_seq",
    "verify_sieve_square",
    "cmv_banded",
]


@dataclass(frozen=True)
class BandedUnitary:
    """A dense periodic-wrap window of a pentadiagonal unitary with an index
    offset; the band is cyclic, so the corner entries lie inside it."""

    offset: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"entries must be square, got shape {ent.shape}")
        n = ent.shape[0]
        i, j = np.indices((n, n))
        dist = np.abs(i - j)
        dist = np.minimum(dist, n - dist)
        off_band = np.abs(ent[dist > 2])
        if off_band.size and off_band.max() > 1e-14:
            raise ValueError(
                f"entries outside the pentadiagonal band (max {off_band.max():.2e})"
            )
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def unitarity_residual(self) -> float:
        """max |U U* - I|."""
        n = self.dim
        g = self.entries @ self.entries.conj().T
        return float(np.max(np.abs(g - np.eye(n))))


def theta(alpha: complex) -> np.ndarray:
    """The 2x2 unitary symmetric block [[conj(a), rho], [rho, -a]]; the
    scalar view of ``_theta_blocks``."""
    a = np.array([complex(alpha)])
    _check_disk(a)
    return _theta_blocks(a)[0]


def _check_disk(a: np.ndarray) -> None:
    big = np.max(np.abs(a), initial=0.0)
    if big >= 1.0:
        raise ValueError(f"|alpha| must be < 1, got {big}")


def _theta_blocks(alpha: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) blocks Theta(alpha_j) of an alpha array."""
    a = np.asarray(alpha, dtype=complex)
    r = _rho(a)
    return np.stack([a.conj(), r, r, -a], axis=-1).reshape(a.shape + (2, 2))


def assemble_lm(
    seq: CoefficientSequence, offset: int, dim: int
) -> tuple[BandedUnitary, BandedUnitary]:
    """The factors L (blocks at even sites) and M (blocks at odd sites) of
    the window over [offset, offset + dim); the block for the last odd site
    wraps its corner entries around."""
    if offset % 2 != 0:
        raise ValueError(f"offset must be even, got {offset}")
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dim must be a positive even integer, got {dim}")
    L, M = _dense(_factors(seq.window(offset, offset + dim)))
    return BandedUnitary(offset, L), BandedUnitary(offset, M)


def assemble_cmv(seq: CoefficientSequence, offset: int, dim: int) -> BandedUnitary:
    """The windowed CMV operator L @ M."""
    L, M = assemble_lm(seq, offset, dim)
    return BandedUnitary(offset, L.entries @ M.entries)


def sieve(seq: CoefficientSequence) -> CoefficientSequence:
    """Interleave zeros: result(2j) = 0 and result(2j-1) = seq(j); a period
    p becomes 2p."""
    def fn(m: np.ndarray) -> np.ndarray:
        out, odd = np.zeros(m.shape, dtype=complex), m % 2 != 0
        out[odd] = seq.window((m[odd] + 1) // 2)  # seq is read at odd sites only
        return out

    period = None if seq.period is None else 2 * seq.period
    return CoefficientSequence(fn=fn, sup_norm_bound=seq.sup_norm_bound, period=period)


def shift_seq(seq: CoefficientSequence, by: int) -> CoefficientSequence:
    """The translated sequence n -> seq(n + by), of the same period."""
    return CoefficientSequence(fn=lambda n: seq.window(n + by),
                               sup_norm_bound=seq.sup_norm_bound, period=seq.period)


def verify_sieve_square(seq: CoefficientSequence, dim: int) -> dict:
    """Residuals for the block structure of the squared sieved operator.

    The square of the sieved operator leaves the mod-4 index classes {0, 3}
    and {1, 2} invariant; on the first class it acts as the CMV operator of
    the one-step-shifted sequence, and on the second as its transpose.
    Returns the leakage residuals of the two invariant subspaces and the
    entrywise similarity residual, computed on periodic-wrap windows in
    banded form.
    """
    if dim % 4 != 0 or dim <= 0:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    hat = cmv_banded(sieve(seq).window(0, dim))
    ref = cmv_banded(shift_seq(seq, 1).window(0, dim // 2))
    return _square_residuals(hat, ref)


def _square_residuals(hat: np.ndarray, ref: np.ndarray) -> dict:
    """Leakage and similarity residuals of W = hat @ hat against ref.

    ``hat`` (dim sites) and ``ref`` (dim / 2 sites) are periodic-wrap
    windows in the cyclic banded form of ``cmv_banded``.
    """
    n = hat.shape[1]
    rows, cols, vals = _banded_entries(_banded_product(hat, hat))
    in_x = np.isin(np.arange(n) % 4, (0, 3))
    x_row, x_col = in_x[rows], in_x[cols]
    absv = np.abs(vals)

    r_rows, r_cols, r_vals = _banded_entries(ref)

    def similarity(mask: np.ndarray, transpose: bool) -> float:
        # site i sits at position i // 2 within its index class
        i, j = rows[mask] // 2, cols[mask] // 2
        if transpose:
            i, j = j, i
        _, _, diff = _coalesce(np.concatenate([i, r_rows]), np.concatenate([j, r_cols]),
                               np.concatenate([vals[mask], -r_vals]), ref.shape[1])
        return float(np.max(np.abs(diff), initial=0.0))

    return {
        "X_invariant_residual": float(np.max(absv[~x_row & x_col], initial=0.0)),
        "Y_invariant_residual": float(np.max(absv[x_row & ~x_col], initial=0.0)),
        "similarity_residual": max(similarity(x_row & x_col, False),
                                   similarity(~x_row & ~x_col, True)),
    }


def _banded_entries(ab: np.ndarray):
    """Coalesced (rows, cols, values) of a cyclic banded matrix.

    Row ``half + s`` of ``ab`` holds the entries (j + s mod n, j); windows
    narrower than the band map several of them onto one entry.
    """
    half, n = ab.shape[0] // 2, ab.shape[1]
    cols = np.tile(np.arange(n), ab.shape[0])
    rows = (cols + np.repeat(np.arange(-half, half + 1), n)) % n
    return _coalesce(rows, cols, ab.ravel(), n)


def _coalesce(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """Sum the values of duplicate (row, col) pairs of an n x n matrix."""
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    out = np.zeros(keys.size, dtype=complex)
    np.add.at(out, inverse, vals)
    return keys // n, keys % n, out


def _dense(ab: np.ndarray) -> np.ndarray:
    """The n x n matrices of cyclic banded ones (..., 2h + 1, n): row h + s
    holds the entries (j + s mod n, j), summed where diagonals meet."""
    w, n = ab.shape[-2:]
    j = np.arange(n)
    at = (..., (j + np.arange(-(w // 2), w // 2 + 1)[:, None]) % n, j)
    out = np.zeros(ab.shape[:-2] + (n, n), dtype=complex)
    if n >= w:  # each entry held once
        out[at] = ab
    else:  # -0.0 + x is x, so an entry held once still keeps its bits
        out[at] = complex(-0.0, -0.0)
        np.add.at(out, at, ab)
    return out


# ---------------------------------------------------------------------------
# the factors and their products in cyclic banded storage
# ---------------------------------------------------------------------------

def _rho(a: np.ndarray) -> np.ndarray:
    """sqrt(1 - |a|^2), rounded like the scalar ``theta``.

    np.abs and x * x round differently from Python's abs() and x ** 2 in the
    last bit; hypot and float_power call the same libm routines.
    """
    return np.sqrt(np.maximum(0.0, 1.0 - np.float_power(np.hypot(a.real, a.imag), 2.0)))


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex product without fused multiply-add, rounded like Python's."""
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _factors(alpha: np.ndarray) -> np.ndarray:
    """The factors L and M of the wrap window over alpha in cyclic banded
    storage, stacked (2, 3, n): row 1 + s holds the entries (j + s mod n, j).
    Block j sits on the sites (j, j + 1 mod n): even j in L, odd j in M, so
    the wrap corner is the block of the last odd site."""
    a = np.asarray(alpha, dtype=complex)
    n = a.size
    if n < 2 or n % 2:
        raise ValueError(f"periodic_wrap needs a positive even window, got {n} sites")
    _check_disk(a)
    j = np.arange(n)[:, None]
    lm = np.zeros((2, 3, n), dtype=complex)
    # block j's entries (0, 0), (0, 1), (1, 0), (1, 1) lie on the diagonals
    # 0, -1, +1, 0 of the columns j, j + 1, j, j + 1
    lm[j % 2, [1, 0, 2, 1], (j + [0, 1, 0, 1]) % n] = _theta_blocks(a).reshape(n, 4)
    return lm


def _banded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of two cyclic banded matrices of any half-widths
    ha and hb, in the same storage with half-width ha + hb.

    Entry (j + s1 + s2, j) gains a[j + s1 + s2, j + s2] * b[j + s2, j] for
    each pair of diagonals, each product rounded like Python's (``_mul``).
    """
    ha, hb = a.shape[0] // 2, b.shape[0] // 2
    out = np.zeros((2 * (ha + hb) + 1, a.shape[1]), dtype=complex)
    for s1 in range(-ha, ha + 1):
        for s2 in range(-hb, hb + 1):
            out[ha + hb + s1 + s2] += _mul(np.roll(a[ha + s1], -s2), b[hb + s2])
    return out


def cmv_banded(alpha: np.ndarray) -> np.ndarray:
    """The periodic-wrap CMV window L @ M over alpha (an even number of
    sites, site indices mod n), the window ``assemble_cmv`` builds, in the
    cyclic (5, n) banded form: row 2 + i - j holds entry (i mod n, j)."""
    return _banded_product(*_factors(alpha))
