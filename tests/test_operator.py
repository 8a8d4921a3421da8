import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmvlab import coefficients as C
from cmvlab import floquet as F
from cmvlab import operator as O

import operator_reference


def unitarity_residual(w):
    """max |W W* - I|."""
    return float(np.max(np.abs(w @ w.conj().T - np.eye(len(w)))))


def expected_interior_row(seq, g):
    """Independent oracle: the four pentadiagonal row entries at global row g."""
    a = lambda m: complex(seq(m))
    r = lambda m: math.sqrt(1.0 - abs(seq(m)) ** 2)
    if g % 2 == 0:
        cols = [g - 1, g, g + 1, g + 2]
        vals = [
            a(g).conjugate() * r(g - 1),
            -a(g).conjugate() * a(g - 1),
            a(g + 1).conjugate() * r(g),
            r(g + 1) * r(g),
        ]
    else:
        cols = [g - 2, g - 1, g, g + 1]
        vals = [
            r(g - 1) * r(g - 2),
            -r(g - 1) * a(g - 2),
            -a(g).conjugate() * a(g - 1),
            -r(g) * a(g - 1),
        ]
    return cols, vals


def test_theta_free():
    np.testing.assert_allclose(O.theta(0.0), [[0, 1], [1, 0]], atol=0)


def test_theta_345():
    np.testing.assert_allclose(O.theta(0.6), [[0.6, 0.8], [0.8, -0.6]], atol=1e-15)


def test_theta_complex_unitary():
    t = O.theta(0.3 + 0.4j)
    assert t[0, 1] == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert np.max(np.abs(t @ t.conj().T - np.eye(2))) < 1e-15


@pytest.mark.parametrize("bad", [1.0, -1.0, 0.8 + 0.8j, math.nan])
def test_theta_rejects(bad):
    with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
        O.theta(bad)


NAN_SEQ = C.CoefficientSequence(lambda n: np.full(n.shape, complex(math.nan, 0.0)))


def test_cmv_banded_refuses_nan():
    with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
        O.cmv_banded(np.array([math.nan, 0.1]))


def test_verify_sieve_square_refuses_a_nan_sequence():
    with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
        O.verify_sieve_square(NAN_SEQ, 8)


def test_assemble_lm_free_dim4():
    L, M = O.assemble_lm(C.constant_seq(0.0), 0, 4)
    np.testing.assert_allclose(
        L,
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        atol=0,
    )
    np.testing.assert_allclose(
        M,
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        atol=0,
    )
    assert unitarity_residual(M) < 1e-15


def test_assemble_lm_constant_dim2():
    L, _ = O.assemble_lm(C.constant_seq(0.6), 0, 2)
    np.testing.assert_allclose(L, O.theta(0.6), atol=1e-15)


def test_assemble_lm_validations():
    s = C.constant_seq(0.1)
    with pytest.raises(ValueError):
        O.assemble_lm(s, 1, 4)
    with pytest.raises(ValueError):
        O.assemble_lm(s, 0, 5)


def test_assemble_cmv_free_unitary():
    e = O.assemble_cmv(C.constant_seq(0.0), 0, 8)
    assert unitarity_residual(e) < 1e-14


def test_assemble_cmv_is_product(make_periodic):
    s = make_periodic(3)
    L, M = O.assemble_lm(s, 0, 12)
    e = O.assemble_cmv(s, 0, 12)
    assert np.max(np.abs(e - L @ M)) < 1e-15


def test_assemble_cmv_interior_row_constant_half():
    e = O.assemble_cmv(C.constant_seq(0.5), 0, 8)
    r = 0.5 * math.sqrt(0.75)
    np.testing.assert_allclose(e[2, 1:5], [r, -0.25, r, 0.75], atol=1e-15)


def test_interior_rows_match_formula_oracle(make_periodic):
    for q in (1, 2, 3, 5):
        s = make_periodic(q, radius=0.7)
        dim = 16
        e = O.assemble_cmv(s, 0, dim)
        for g in range(2, dim - 2):
            cols, vals = expected_interior_row(s, g)
            row = np.zeros(dim, dtype=complex)
            row[cols] = vals
            assert np.max(np.abs(e[g] - row)) < 1e-14


@pytest.mark.parametrize("dim", [4, 16, 64, 256], ids=lambda d: f"periodic_wrap-{d}")
def test_unitarity_windows(make_periodic, dim):
    s = make_periodic(4, radius=0.8)
    e = O.assemble_cmv(s, 0, dim)
    assert unitarity_residual(e) < 1e-12


def test_unitarity_large_window(make_periodic):
    s = make_periodic(8, radius=0.8)
    e = O.assemble_cmv(s, 0, 2048)
    assert unitarity_residual(e) < 1e-12


def test_sieve_values():
    s = O.sieve(C.constant_seq(0.5))
    assert s(-1) == 0.5 and s(0) == 0 and s(1) == 0.5 and s(2) == 0

    free = O.sieve(C.constant_seq(0.0))
    assert all(free(n) == 0 for n in range(-4, 5))

    p3 = C.periodize(C.constant_seq(0.2), 3)
    assert O.sieve(p3).period == 6


def test_sieve_preserves_values_without_period():
    raw = C.CoefficientSequence(fn=lambda n: 0.1 * (n % 3))
    sv = O.sieve(raw)
    assert sv.period is None
    assert sv(3) == raw(2) and sv(5) == raw(3) and sv(4) == 0


def test_verify_sieve_square_free():
    res = O.verify_sieve_square(C.constant_seq(0.0), 16)
    assert max(res.values()) < 1e-14


def test_verify_sieve_square_constant():
    res = O.verify_sieve_square(C.constant_seq(0.5), 16)
    assert max(res.values()) < 1e-12


def test_verify_sieve_square_random(rng):
    for i in range(50):
        q = int(rng.choice([1, 2, 3]))
        vals = 0.7 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        s = C.periodic_table_seq(vals)
        res = O.verify_sieve_square(s, 8 * q if q > 1 else 8)
        assert max(res.values()) < 1e-12


def test_verify_sieve_square_rejects_dim():
    with pytest.raises(ValueError):
        O.verify_sieve_square(C.constant_seq(0.1), 10)


def test_sieve_square_row_formula(make_periodic):
    # squared sieved operator maps delta_{4n} with weight rho_{2n} rho_{2n-1}
    # onto delta_{4n-4}
    s = make_periodic(3, radius=0.6)
    dim = 24
    hat = O.assemble_cmv(O.sieve(s), 0, dim)
    W = hat @ hat
    for n in (1, 2):
        expected = s.rho(2 * n) * s.rho(2 * n - 1)
        assert W[4 * n - 4, 4 * n] == pytest.approx(expected, abs=1e-13)


def test_norm_diff_identical_is_zero(make_periodic):
    s = make_periodic(2)
    assert F.norm_diff(s, s, 8) == 0.0


def test_norm_diff_sieved_lower_bound(rng):
    for _ in range(100):
        q = int(rng.choice([1, 2, 3]))
        v1 = 0.85 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        v2 = 0.85 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        s1, s2 = C.periodic_table_seq(v1), C.periodic_table_seq(v2)
        dim = 4 * math.lcm(2 * q, 2)
        nd = F.norm_diff(O.sieve(s1), O.sieve(s2), dim)
        sup = max(abs(s1(j) - s2(j)) for j in range(q))
        assert nd >= sup - 1e-12


def test_norm_diff_constant_example():
    nd = F.norm_diff(C.constant_seq(0.5), C.constant_seq(0.6), 16)
    assert 0.1 <= nd <= 0.8
    # dual route: largest eigenvalue of D^H D
    e1 = O.assemble_cmv(C.constant_seq(0.5), 0, 16)
    e2 = O.assemble_cmv(C.constant_seq(0.6), 0, 16)
    d = e1 - e2
    oracle = math.sqrt(np.max(np.linalg.eigvalsh(d.conj().T @ d)))
    assert nd == pytest.approx(oracle, abs=1e-12)


def test_norm_diff_ratio_bounded(rng):
    # empirical constant for the upper bound over |alpha| <= 0.9
    worst = 0.0
    for _ in range(50):
        q = int(rng.choice([1, 2]))
        v1 = 0.9 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        v2 = 0.9 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        s1, s2 = C.periodic_table_seq(v1), C.periodic_table_seq(v2)
        sup = max(abs(s1(j) - s2(j)) for j in range(q))
        if sup < 1e-9:
            continue
        nd = F.norm_diff(s1, s2, 4 * math.lcm(q, 2))
        worst = max(worst, nd / sup)
    assert worst <= 8.0


def test_norm_diff_window_validation():
    s = C.periodize(C.constant_seq(0.2), 4)
    with pytest.raises(ValueError):
        F.norm_diff(s, s, 6)  # not a multiple of the common period
    raw = C.CoefficientSequence(fn=lambda n: np.zeros(n.shape, complex))
    with pytest.raises(ValueError):
        F.norm_diff(raw, s, 8)


def test_windows_are_read_only_arrays():
    L, M = O.assemble_lm(C.constant_seq(0.3), 0, 8)
    e = O.assemble_cmv(C.constant_seq(0.3), 0, 8)
    for w in (L, M, e):
        assert type(w) is np.ndarray and w.dtype == complex and w.shape == (8, 8)
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0


# ---------------------------------------------------------------------------
# banded windows against dense and scalar oracles
# ---------------------------------------------------------------------------

disk_tables = st.lists(
    st.builds(lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 0.95), st.floats(0.0, 1.0)),
    min_size=1, max_size=8,
).map(C.periodic_table_seq)


def banded_to_dense(ab):
    """Entry (i, j) from ab[h + i - j, j], h the half-width; wrapped entries
    add up mod n."""
    h, n = ab.shape[0] // 2, ab.shape[1]
    dense = np.zeros((n, n), dtype=complex)
    for s in range(-h, h + 1):
        for j in range(n):
            dense[(j + s) % n, j] += ab[h + s, j]
    return dense


@settings(max_examples=80, deadline=None)
@given(ha=st.integers(0, 4), hb=st.integers(0, 4), n=st.integers(1, 24), data=st.data())
def test_banded_product_matches_the_dense_product(ha, hb, n, data):
    # n below 2 (ha + hb) + 1 wraps several diagonals onto one entry
    entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    a = data.draw(arrays(complex, (2 * ha + 1, n), elements=entries))
    b = data.draw(arrays(complex, (2 * hb + 1, n), elements=entries))
    got = O._banded_product(a, b)
    assert got.shape == (2 * (ha + hb) + 1, n)
    want = banded_to_dense(a) @ banded_to_dense(b)
    assert np.max(np.abs(banded_to_dense(got) - want)) <= 1e-13


def dense_square_residuals(E, ref):
    """The dense L @ M reference: W = E @ E read through index masks."""
    W = E @ E
    idx = np.arange(E.shape[0])
    x_mask = (idx % 4 == 0) | (idx % 4 == 3)
    ix, iy = idx[x_mask], idx[~x_mask]
    return {
        "X_invariant_residual": float(np.max(np.abs(W[np.ix_(iy, ix)]))),
        "Y_invariant_residual": float(np.max(np.abs(W[np.ix_(ix, iy)]))),
        "similarity_residual": max(
            float(np.max(np.abs(W[np.ix_(ix, ix)] - ref))),
            float(np.max(np.abs(W[np.ix_(iy, iy)].T - ref))),
        ),
    }


def dense_sieve_residuals(seq, dim):
    return dense_square_residuals(
        O.assemble_cmv(O.sieve(seq), 0, dim),
        O.assemble_cmv(O.shift_seq(seq, 1), 0, dim // 2),
    )


@settings(max_examples=60, deadline=None)
@given(seq=disk_tables, half=st.integers(-4, 4), dim=st.sampled_from([2, 4, 6, 8, 12]))
def test_banded_periodic_wrap_matches_dense(seq, half, dim):
    offset = 2 * half  # a window's first site is even
    window = seq.window(offset, offset + dim)
    got = banded_to_dense(O.cmv_banded(window))
    # the row formulas of the window's periodic extension, indices mod dim
    cyclic = C.periodic_table_seq(np.roll(window, offset))
    oracle = np.zeros((dim, dim), dtype=complex)
    for g in range(offset, offset + dim):
        cols, vals = expected_interior_row(cyclic, g)
        for c, v in zip(cols, vals):
            oracle[g - offset, (c - offset) % dim] += v
    assert np.max(np.abs(got - oracle)) <= 1e-15
    dense = O.assemble_cmv(seq, offset, dim)
    assert np.max(np.abs(got - dense)) <= 1e-15


def scalar_theta(a):
    """The block [[conj(a), rho], [rho, -a]] with Python's scalar rho, |a|^2
    by the formula of ``coefficients._abs2``."""
    a = complex(a)
    rho = math.sqrt(1.0 - (a.real * a.real + a.imag * a.imag))
    return np.array([[a.conjugate(), rho], [rho, -a]])


def place_blocks(blocks):
    """Dense L and M with blocks[j] on the sites (j, j + 1 mod n), even j in L."""
    n = len(blocks)
    lm = np.zeros((2, n, n), dtype=complex)
    for j, b in enumerate(blocks):
        sites = (j, (j + 1) % n)
        for r in range(2):
            for c in range(2):
                lm[j % 2, sites[r], sites[c]] = b[r, c]
    return lm[0], lm[1]


@settings(max_examples=80, deadline=None)
@given(seq=disk_tables, data=st.data())
def test_lm_and_floquet_blocks_are_scalar_theta_bitwise(seq, data):
    q = data.draw(st.sampled_from([q for q in range(2, 17, 2) if q % seq.period == 0]))
    k = data.draw(st.floats(0.0, 1.0)) * math.pi / q
    offset = 2 * data.draw(st.integers(-5, 5))

    wrap = [scalar_theta(a) for a in seq.window(offset, offset + q)]
    for a, block in zip(seq.window(offset, offset + q), wrap):
        assert np.array_equal(O.theta(a), block)
    L, M = O.assemble_lm(seq, offset, q)
    want_L, want_M = place_blocks(wrap)
    assert np.array_equal(L, want_L) and np.array_equal(M, want_M)
    # every window is read from the one placement: its dense scatter keeps
    # the value of every entry (a zero may lose its sign)
    dense = O._dense(O._factors(seq.window(offset, offset + q)))
    assert np.array_equal(dense, [want_L, want_M])

    # Floquet: the corner block carries e^{ikq} at (q-1, 0), e^{-ikq} at (0, q-1)
    blocks = [scalar_theta(a) for a in seq.window(0, q)]
    corner = blocks[-1].copy()
    rho = corner[0, 1].real
    corner[0, 1] = rho * cmath.exp(1j * k * q)
    corner[1, 0] = rho * cmath.exp(-1j * k * q)
    L, M = F.floquet_blocks(seq, q, k)
    want_L, want_M = place_blocks(blocks[:-1] + [corner])
    assert np.array_equal(L, want_L) and np.array_equal(M, want_M)


def test_cmv_banded_validations():
    with pytest.raises(ValueError):
        O.cmv_banded(np.zeros(3))  # odd window


@settings(max_examples=40, deadline=None)
@given(seq=disk_tables, dim=st.sampled_from([4, 8, 12, 16, 40]))
def test_banded_sieve_square_matches_dense(seq, dim):
    got = O.verify_sieve_square(seq, dim)
    want = dense_sieve_residuals(seq, dim)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-15, key


def test_banded_sieve_square_matches_dense_at_2048(make_periodic):
    s = make_periodic(8, radius=0.8)
    got = O.verify_sieve_square(s, 2048)
    want = dense_sieve_residuals(s, 2048)
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-15, key


@settings(max_examples=40, deadline=None)
@given(seq=disk_tables, dim=st.sampled_from([4, 8, 12, 16, 40]))
def test_square_residuals_of_unsieved_operator_match_dense(seq, dim):
    # without sieving W leaks between the index classes, so the residuals
    # are O(1) and a value pinned to 0 would fail
    shifted = O.shift_seq(seq, 1)
    got = O._square_residuals(
        O.cmv_banded(seq.window(0, dim)),
        O.cmv_banded(shifted.window(0, dim // 2)),
    )
    want = dense_square_residuals(
        O.assemble_cmv(seq, 0, dim),
        O.assemble_cmv(shifted, 0, dim // 2),
    )
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-14, key


@settings(max_examples=40, deadline=None)
@given(seq=disk_tables, dim=st.sampled_from([4, 8, 12, 16, 64, 2048]),
       kind=st.sampled_from(["sieved", "unsieved", "random"]), seed=st.integers(0, 2**32 - 1))
def test_square_residuals_equal_the_coalescing_reference_bitwise(seq, dim, kind, seed):
    # windows of 4 and 8 sites are narrower than the band; random bands give
    # every entry of W a value
    shifted = O.shift_seq(seq, 1)
    if kind == "random":
        rng = np.random.default_rng(seed)
        hat, ref = (rng.normal(size=(5, m, 2)) @ [1.0, 1j] for m in (dim, dim // 2))
    else:
        hat = O.cmv_banded((O.sieve(seq) if kind == "sieved" else seq).window(0, dim))
        ref = O.cmv_banded(shifted.window(0, dim // 2))
    got, want = O._square_residuals(hat, ref), operator_reference._square_residuals(hat, ref)
    assert got.keys() == want.keys()
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


def test_unsieved_leakage_is_nonzero():
    s = C.periodic_table_seq([0.5, 0.3j, -0.2, 0.4 + 0.1j])
    got = O._square_residuals(
        O.cmv_banded(s.window(0, 16)),
        O.cmv_banded(O.shift_seq(s, 1).window(0, 8)),
    )
    assert min(got.values()) > 1e-2


def test_verify_sieve_square_builds_no_dense_window(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("verify_sieve_square must stay banded")

    monkeypatch.setattr(O, "assemble_cmv", no_dense)
    monkeypatch.setattr(O, "_dense", no_dense)
    # windows of 4 and 8 sites are narrower than the band: their wrapped
    # diagonals are folded, not scattered into a dense window
    for dim in (4, 8, 64):
        res = O.verify_sieve_square(C.quasiperiodic_seq(0.6, 0.3, 0.1), dim)
        assert max(res.values()) < 1e-14, dim


def _banded_bytes() -> str:
    """cmv_banded and band_derivative on fixed inputs, as hex bytes."""
    rng = np.random.default_rng(5)
    alpha = 0.95 * rng.random(64) * np.exp(2j * np.pi * rng.random(64))
    q, k = 8, np.linspace(0.05, 0.35, 7)
    u = rng.standard_normal((k.size, q, q)) + 1j * rng.standard_normal((k.size, q, q))
    dz = F.band_derivative(C.periodic_table_seq(alpha[:q]), q, k, u)
    return (O.cmv_banded(alpha).tobytes() + dz.tobytes()).hex()


def _numpy_cpu_features() -> dict:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return getattr(_multiarray_umath, "__cpu_features__", {})


@pytest.mark.skipif(not _numpy_cpu_features().get("X86_V3"),
                    reason="numpy reports no X86_V3 dispatch")
def test_banded_products_keep_their_bits_without_simd_dispatch():
    # numpy's complex a * b takes fused multiply-adds under X86_V3 and wider
    # dispatch; _mul must round the same with that dispatch switched off
    script = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import test_operator; print(test_operator._banded_bytes())")
    src = str(Path(O.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    out = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent), src],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == _banded_bytes()
