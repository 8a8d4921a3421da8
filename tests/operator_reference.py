"""Reference copy of the coalescing implementation of
cmvlab.operator._square_residuals.

The diagonal-reading implementation in the package must equal it bit for
bit; see test_operator.py.  Only this docstring and the package import
differ from the coalescing version.
"""

from __future__ import annotations

import numpy as np

from cmvlab.operator import _banded_product


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
