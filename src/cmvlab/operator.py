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
(``_banded_product``, which also squares the sieved window, read at every
dim after ``_fold`` has summed the diagonals that wrap onto one entry).

Dense windows are read-only complex arrays.
"""

from __future__ import annotations

import numpy as np

from .coefficients import CoefficientSequence, _check_disk, _rho

__all__ = [
    "theta",
    "assemble_lm",
    "assemble_cmv",
    "sieve",
    "shift_seq",
    "verify_sieve_square",
    "cmv_banded",
]

_SIEVE_TOL = 1e-12  # the bound a sieve-check residual is judged against


def theta(alpha: complex) -> np.ndarray:
    """The 2x2 unitary symmetric block [[conj(a), rho], [rho, -a]]; the
    scalar view of ``_theta_blocks``."""
    return _theta_blocks(_check_disk(np.array([complex(alpha)])))[0]


def _theta_blocks(alpha: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) blocks Theta(alpha_j) of an alpha array."""
    a = np.asarray(alpha, dtype=complex)
    r = _rho(a)
    return np.stack([a.conj(), r, r, -a], axis=-1).reshape(a.shape + (2, 2))


def assemble_lm(
    seq: CoefficientSequence, offset: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The dim x dim factors L (blocks at even sites) and M (blocks at odd
    sites) of the window over [offset, offset + dim), read-only; the block
    for the last odd site wraps its corner entries around."""
    if offset % 2 != 0:
        raise ValueError(f"offset must be even, got {offset}")
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dim must be a positive even integer, got {dim}")
    L, M = _dense(_factors(seq.window(offset, offset + dim)))
    L.flags.writeable = M.flags.writeable = False
    return L, M


def assemble_cmv(seq: CoefficientSequence, offset: int, dim: int) -> np.ndarray:
    """The windowed CMV operator L @ M, a read-only dim x dim array."""
    L, M = assemble_lm(seq, offset, dim)
    E = L @ M
    E.flags.writeable = False
    return E


def sieve(seq: CoefficientSequence) -> CoefficientSequence:
    """Interleave zeros: result(2j) = 0 and result(2j-1) = seq(j); a period
    p becomes 2p."""
    def fn(m: np.ndarray) -> np.ndarray:
        out, odd = np.zeros(m.shape, dtype=complex), m % 2 != 0
        out[odd] = seq.window((m[odd] + 1) // 2)  # seq is read at odd sites only
        return out

    period = None if seq.period is None else 2 * seq.period
    return CoefficientSequence(fn=fn, period=period)


def shift_seq(seq: CoefficientSequence, by: int) -> CoefficientSequence:
    """The translated sequence n -> seq(n + by), of the same period."""
    return CoefficientSequence(fn=lambda n: seq.window(n + by), period=seq.period)


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

    ``hat`` (dim sites, dim a multiple of 4) and ``ref`` (dim / 2 sites)
    are periodic-wrap windows in the cyclic banded form of ``cmv_banded``.
    Site i of an index class sits at position i // 2 within it: the class
    {0, 3} holds the sites 2 c + c % 2 and {1, 2} the sites 2 c + 1 - c % 2.
    Each class's entries of W fill ref's five diagonals once, so both sides
    are read off the diagonals, after ``_fold`` has summed the diagonals of
    a window narrower than its band that wrap onto one entry.
    """
    n = hat.shape[1]
    w = _banded_product(hat, hat)
    half = w.shape[0] // 2
    w, ref = _fold(w), _fold(ref)
    site = np.arange(n)
    in_x = (site % 4 == 0) | (site % 4 == 3)
    # row r of w holds the entries (j + r - half mod n, j)
    x_row = in_x[(site + (np.arange(w.shape[0]) - half)[:, None]) % n]
    c = np.arange(n // 2)
    near = (c + (np.arange(ref.shape[0]) - 2)[:, None]) % (n // 2)

    def on_ref_band(sites: np.ndarray, transpose: bool) -> np.ndarray:
        # ref's band row r, column c holds (c + r - 2, c): the class entry
        # W(sites[c + r - 2], sites[c]), or W(sites[c], sites[c + r - 2]) transposed
        i, j = sites[near], np.broadcast_to(sites, near.shape)
        if transpose:
            i, j = j, i
        return w[(i - j + half) % n, j]

    def top(v):
        return float(np.max(np.abs(v), initial=0.0))

    return {
        "X_invariant_residual": top(w[~x_row & in_x]),
        "Y_invariant_residual": top(w[x_row & ~in_x]),
        "similarity_residual": max(top(on_ref_band(2 * c + c % 2, False) - ref),
                                   top(on_ref_band(2 * c + 1 - c % 2, True) - ref)),
    }


def _fold(ab: np.ndarray) -> np.ndarray:
    """A cyclic banded array (2h + 1, n) with row r holding the entries
    (j + r - h mod n, j): where n < 2h + 1, its n rows r sum the rows k = r
    mod n into zeros in row order, as ``_dense`` sums the diagonals that meet."""
    rows, n = ab.shape
    if n >= rows:
        return ab
    out = np.zeros((n, n), dtype=complex)
    for k in range(rows):
        out[k % n] += ab[k]
    return out


def _dense(ab: np.ndarray) -> np.ndarray:
    """The n x n matrices of cyclic banded ones (..., 2h + 1, n): row h + s
    holds the entries (j + s mod n, j), summed where diagonals meet (windows
    of fewer than 2h + 1 sites).  One scatter adds every entry into zeros, so
    an entry held once keeps its value; a zero may lose its sign."""
    w, n = ab.shape[-2:]
    j = np.arange(n)
    at = (..., (j + np.arange(-(w // 2), w // 2 + 1)[:, None]) % n, j)
    out = np.zeros(ab.shape[:-2] + (n, n), dtype=complex)
    np.add.at(out, at, ab)
    return out


# ---------------------------------------------------------------------------
# the factors and their products in cyclic banded storage
# ---------------------------------------------------------------------------

def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex product without fused multiply-add, rounded like Python's:
    numpy's ``x * y`` fuses under X86_V3 and wider dispatch only, so this keeps
    ``cmv_banded`` and the band velocities independent of the SIMD level."""
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
