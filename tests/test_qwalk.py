import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import operator as O
from cmvlab import qwalk as Q
from cmvlab.errors import CoinGaugeError


def test_pure_shift_single_and_many_steps():
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(Q.identity_coins(), (st.n_lo, st.n_hi))
    out = Q.evolve(st, walk, 5)
    assert out.amplitude(5, "+") == pytest.approx(1.0)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def test_spin_swap_coin_single_step():
    swap = Q.constant_coins(np.array([[0, 1], [1, 0]]))
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(swap, (st.n_lo, st.n_hi))
    out = Q.evolve(st, walk, 1)
    assert out.amplitude(-1, "-") == pytest.approx(1.0)


def test_evolve_t0_identity():
    st = Q.WalkState.delta(2, "-")
    walk = Q.build_walk(Q.hadamard_coins(), (st.n_lo, st.n_hi))
    assert Q.evolve(st, walk, 0) is st


def test_hadamard_unitarity_and_norm():
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(Q.hadamard_coins(), (-8, 7))
    U = walk.matrix()
    assert np.max(np.abs(U @ U.conj().T - np.eye(32))) < 1e-13
    out = Q.evolve(st, Q.build_walk(Q.hadamard_coins(), (st.n_lo, st.n_hi)), 100)
    assert abs(out.norm2() - 1.0) < 1e-7


def test_build_walk_rejects_non_unitary():
    bad = Q.constant_coins(np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="not unitary"):
        Q.build_walk(bad, (0, 3))


@pytest.mark.parametrize("bad_site, residual", [(3, 1e-12), (-2, 0.5)])
def test_walk_names_the_first_non_unitary_interior_coin(bad_site, residual):
    # unitary everywhere but at bad_site (and at a later site), just above
    # the 1e-13 tolerance in the first case
    h = Q.hadamard_coins()(0)

    def fn(n):
        return np.where(np.isin(n, (bad_site, 6))[..., None, None], h * (1.0 + residual), h)

    coins = Q.CoinSequence(fn=fn)
    with pytest.raises(ValueError, match=f"coin at site {bad_site} is not unitary"):
        Q.build_walk(coins, (-5, 8))
    # a residual of 1e-14 passes, and the stored table is the coins read once
    ok = Q.CoinSequence(fn=lambda n: np.where((n == bad_site)[..., None, None],
                                              h * (1.0 + 5e-15), h))
    walk = Q.build_walk(ok, (-5, 8))
    assert walk.table.shape == (14, 2, 2)
    assert np.array_equal(walk.table[bad_site + 5], ok(bad_site))


def _cgmv_period(p):
    gammas = [0.7 * cmath.exp(2j * math.pi * (0.37 * k + 0.1)) * (k + 1) / (p + 1)
              for k in range(p)]
    return gammas, Q.cgmv_coins(C.periodic_table_seq(gammas))


@pytest.mark.parametrize("window", [(-7, 9), (-11, 3), (-3, -2), (4, 4), (-2, 0)])
@pytest.mark.parametrize("period", [1, 3, 4, 5])
def test_coin_table_tiles_one_period(window, period):
    # odd and even widths, negative n_lo, windows narrower than one period
    gammas, coins = _cgmv_period(period)
    reads = []

    def fn(n):
        reads.append(n.tolist())
        return coins(n)

    n_lo, n_hi = window
    per_site = np.stack([coins(n) for n in range(n_lo, n_hi + 1)])
    walk = Q.build_walk(Q.CoinSequence(fn=fn, period=period), window)
    np.testing.assert_array_equal(walk.table, per_site)
    # one read of one period
    assert reads == [list(range(n_lo, n_lo + min(period, n_hi - n_lo + 1)))]
    # without period metadata every site is read, in the same one call
    reads.clear()
    walk = Q.build_walk(Q.CoinSequence(fn=fn), window)
    np.testing.assert_array_equal(walk.table, per_site)
    assert reads == [list(range(n_lo, n_hi + 1))]


def _cgmv_formula(g):
    """The coin [[rho, -g], [conj(g), rho]] of one gauge parameter, by math."""
    rho = math.sqrt(1.0 - (g.real * g.real + g.imag * g.imag))  # C._abs2's formula
    return np.array([[rho, -g], [g.conjugate(), rho]], dtype=complex)


def test_quasiperiodic_coins_are_read_in_one_window_call():
    qp, calls = C.quasiperiodic_seq(0.6, 0.6180339887498949, 0.1), []

    def fn(n):
        calls.append(n.shape)
        return qp.fn(n)

    # the 131 075 sites of a walk of t = 65 536 steps from a delta start
    gamma = C.CoefficientSequence(fn=fn)
    walk = Q.build_walk(Q.cgmv_coins(gamma), (-65537, 65537))
    assert calls == [(131_075,)]
    assert walk.table.shape == (131_075, 2, 2)
    sites = np.random.default_rng(5).integers(-65537, 65538, size=200)
    per_site = [_cgmv_formula(0.6 * cmath.exp(2j * math.pi * (n * 0.6180339887498949 + 0.1)))
                for n in sites.tolist()]
    np.testing.assert_array_equal(walk.table[sites + 65537], per_site)


@pytest.mark.parametrize("n_lo", [-9, -4, 0, 2])
def test_periodic_coins_name_the_first_bad_site_in_the_window(n_lo):
    h = Q.hadamard_coins()(0)
    coins = Q.table_coins([h, h * 1.5, h, h])
    first = next(n for n in range(n_lo, n_lo + 4) if n % 4 == 1)
    with pytest.raises(ValueError, match=f"coin at site {first} is not unitary"):
        Q.build_walk(coins, (n_lo, n_lo + 10))


@pytest.mark.parametrize("t", [1, 2, 17])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 5])
def test_evolve_is_t_public_steps_on_the_padded_state(rng, period, t):
    _, coins = _cgmv_period(period)
    amp = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    st = Q.WalkState(n_lo=-3, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))
    got = Q.evolve(st, Q.build_walk(coins, (st.n_lo, st.n_hi)), t)

    pad = t + 1
    padded = np.zeros((5 + 2 * pad, 2), dtype=complex)
    padded[pad:-pad] = st.amplitudes
    ref = Q.WalkState(n_lo=st.n_lo - pad, amplitudes=padded)
    walk = Q.build_walk(coins, (ref.n_lo, ref.n_hi))
    for _ in range(t):
        ref = walk.step(ref)
    assert (got.n_lo, got.n_hi) == (ref.n_lo, ref.n_hi)
    assert np.array_equal(got.amplitudes, ref.amplitudes)


@pytest.mark.parametrize("t", [1, 2, 17, 64])
def test_evolve_with_quasiperiodic_coins_is_t_public_steps(rng, t):
    coins = Q.cgmv_coins(C.quasiperiodic_seq(0.8, 0.6180339887498949, 0.3))
    amp = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    st = Q.WalkState(n_lo=-3, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))
    got = Q.evolve(st, Q.build_walk(coins, (st.n_lo, st.n_hi)), t)

    pad = t + 1
    padded = np.zeros((5 + 2 * pad, 2), dtype=complex)
    padded[pad:-pad] = st.amplitudes
    ref = Q.WalkState(n_lo=st.n_lo - pad, amplitudes=padded)
    walk = Q.build_walk(coins, (ref.n_lo, ref.n_hi))
    for _ in range(t):
        ref = walk.step(ref)
    assert (got.n_lo, got.n_hi) == (ref.n_lo, ref.n_hi)
    assert np.array_equal(got.amplitudes, ref.amplitudes)


def _chain_state(seed, width, n_lo, empty):
    """A random unit state of ``width`` sites from n_lo whose chain ``empty``
    (the sites n_lo + empty + 2m) is exactly zero; None keeps both chains."""
    g = np.random.default_rng(seed)
    amp = g.normal(size=(width, 2)) + 1j * g.normal(size=(width, 2))
    if empty is not None:
        amp[empty::2] = 0.0
    assume(np.any(amp))
    return Q.WalkState(n_lo=n_lo, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))


def _random_coins(seed, period):
    g = np.random.default_rng(seed + 1)
    gammas = 0.9 * np.sqrt(g.random(period)) * np.exp(2j * math.pi * g.random(period))
    return Q.cgmv_coins(C.periodic_table_seq(gammas))


_CHAIN_STATES = dict(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 8),
                     n_lo=st.integers(-6, 6), empty=st.sampled_from([None, 0, 1]),
                     period=st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 40), **_CHAIN_STATES)
def test_evolve_in_the_chain_frame_is_t_public_steps(seed, width, n_lo, empty, period, t):
    state = _chain_state(seed, width, n_lo, empty)
    coins = _random_coins(seed, period)
    got = Q.evolve(state, Q.build_walk(coins, (state.n_lo, state.n_hi)), t)

    pad = t + 1
    padded = np.zeros((width + 2 * pad, 2), dtype=complex)
    padded[pad:-pad] = state.amplitudes
    ref = Q.WalkState(n_lo=n_lo - pad, amplitudes=padded)
    walk = Q.build_walk(coins, (ref.n_lo, ref.n_hi))
    for _ in range(t):
        ref = walk.step(ref)
    assert (got.n_lo, got.n_hi) == (ref.n_lo, ref.n_hi)
    assert np.array_equal(got.amplitudes, ref.amplitudes)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 20), b=st.integers(0, 20), **_CHAIN_STATES)
def test_evolve_composes_bit_for_bit(seed, width, n_lo, empty, period, a, b):
    state = _chain_state(seed, width, n_lo, empty)
    walk = Q.build_walk(_random_coins(seed, period), (state.n_lo, state.n_hi))
    two = Q.evolve(Q.evolve(state, walk, a), walk, b)
    one = Q.evolve(state, walk, a + b)
    # the composed window is the wider one; both contain the light cone
    lo = one.n_lo - two.n_lo
    assert lo >= 0 and two.n_hi - one.n_hi == lo
    common = np.arange(lo, two.amplitudes.shape[0] - lo)
    assert np.array_equal(two.amplitudes[common], one.amplitudes)
    assert not np.any(np.delete(two.amplitudes, common, axis=0))


def _u2_table(g, period):
    """``period`` general U(2) coins: the Q of a QR factorisation of complex
    normals, so that q00 != q11 and q01 != -conj(q10), unlike the gauge form."""
    z = g.normal(size=(period, 2, 2)) + 1j * g.normal(size=(period, 2, 2))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("empty", [None, 0, 1])
@pytest.mark.parametrize("n_lo", [-3, 2])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 5])
def test_evolve_with_general_unitary_coins_is_t_public_steps(period, n_lo, empty):
    g = np.random.default_rng(1000 * period + 10 * n_lo + (3 if empty is None else empty))
    table = _u2_table(g, period)
    assert not np.allclose(table[:, 0, 0], table[:, 1, 1])
    coins = Q.table_coins(table)
    amp = g.normal(size=(6, 2)) + 1j * g.normal(size=(6, 2))
    if empty is not None:
        amp[empty::2] = 0.0
    state = Q.WalkState(n_lo=n_lo, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))
    walk = Q.build_walk(coins, (state.n_lo, state.n_hi))
    for t in (1, 2, 3, 17, 40):
        got = Q.evolve(state, walk, t)
        pad = t + 1
        padded = np.zeros((6 + 2 * pad, 2), dtype=complex)
        padded[pad:-pad] = state.amplitudes
        ref = Q.WalkState(n_lo=n_lo - pad, amplitudes=padded)
        step = Q.build_walk(coins, (ref.n_lo, ref.n_hi))
        for _ in range(t):
            ref = step.step(ref)
        assert (got.n_lo, got.n_hi) == (ref.n_lo, ref.n_hi)
        assert np.array_equal(got.amplitudes, ref.amplitudes)


def _einsum_step(table, amp):
    """The reference step: U = S Q on (W, 2) amplitudes as one einsum over the
    (W, 2, 2) coin table, absorbing edges refused beyond 1e-18."""
    from cmvlab.errors import NumericalInstabilityError

    mixed = np.einsum("jab,jb->ja", table, amp)
    out = np.zeros_like(mixed)
    out[1:, 0] = mixed[:-1, 0]
    out[:-1, 1] = mixed[1:, 1]
    lost = abs(mixed[-1, 0]) ** 2 + abs(mixed[0, 1]) ** 2
    if not lost <= 1e-18:
        raise NumericalInstabilityError(f"amplitude {lost:.2e} hit the absorbing boundary")
    return out


def _einsum_evolve(state, coins, t):
    """t reference steps of every site of the state's window padded by t + 1."""
    pad = t + 1
    walk = Q.build_walk(coins, (state.n_lo - pad, state.n_hi + pad))
    amp = np.zeros((walk.width, 2), dtype=complex)
    amp[pad:-pad] = state.amplitudes
    for _ in range(t):
        amp = _einsum_step(walk.table, amp)
    return walk.n_lo, amp


@pytest.mark.parametrize("initial", ["random", "delta"])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 5])
def test_evolve_matches_the_einsum_reference(rng, period, initial):
    _, coins = _cgmv_period(period)
    if initial == "delta":
        st = Q.WalkState.delta(3, "-")
    else:
        amp = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        st = Q.WalkState(n_lo=-4, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))
    walk = Q.build_walk(coins, (st.n_lo, st.n_hi))
    for t in (1, 2, 31, 128, 512):
        got = Q.evolve(st, walk, t)
        n_lo, ref = _einsum_evolve(st, coins, t)
        assert got.n_lo == n_lo and got.amplitudes.shape == ref.shape
        assert np.max(np.abs(got.amplitudes - ref)) <= 1e-15


@pytest.mark.parametrize("chain", [0, 1])
def test_evolve_is_zero_off_its_sublattice_and_outside_the_cone(rng, chain):
    # only the sites n_lo + chain + 2m carry amplitude; after t steps the
    # support lies on the sites of parity n_lo + chain + t within
    # [n_lo - t, n_hi + t], and the reference, which steps every site of the
    # padded window, agrees that nothing lives elsewhere
    _, coins = _cgmv_period(3)
    amp = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    amp[1 - chain::2] = 0.0
    st = Q.WalkState(n_lo=-4, amplitudes=amp / np.sqrt(np.sum(np.abs(amp) ** 2)))
    walk = Q.build_walk(coins, (st.n_lo, st.n_hi))
    for t in (1, 2, 31, 128):
        got = Q.evolve(st, walk, t)
        n_lo, ref = _einsum_evolve(st, coins, t)
        sites = n_lo + np.arange(ref.shape[0])
        off = ((sites - st.n_lo - chain - t) % 2 == 1) | (sites < st.n_lo - t) \
            | (sites > st.n_hi + t)
        assert np.all(ref[off] == 0) and np.all(got.amplitudes[off] == 0)
        assert np.max(np.abs(got.amplitudes - ref)) <= 1e-15
        assert np.any(got.amplitudes[~off] != 0)


def test_survival_examples():
    st = Q.WalkState.delta(0, "+")
    shift = Q.build_walk(Q.identity_coins(), (st.n_lo, st.n_hi))
    assert Q.survival_probability(st, shift, 0, 0) == pytest.approx(1.0)
    assert Q.survival_probability(st, shift, 3, 10) == pytest.approx(0.0, abs=1e-15)

    had = Q.build_walk(Q.hadamard_coins(), (st.n_lo, st.n_hi))
    s20 = Q.survival_probability(st, had, 5, 20)
    s200 = Q.survival_probability(st, had, 5, 200)
    assert s200 < s20


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 12),
       n_lo=st.integers(-15, 8), J=st.integers(0, 10))
def test_survival_sums_the_window_rows_at_sites_within_j(seed, width, n_lo, J):
    state = _chain_state(seed, width, n_lo, None)
    terms = [C._abs2(state.amplitude(j, spin)) for j in range(-J, J + 1) for spin in "+-"]
    got = state.survival(J)
    assert abs(got - math.fsum(terms)) <= 4 * np.finfo(float).eps * max(got, 1e-300)
    if n_lo > J or n_lo + width - 1 < -J:  # no site of the window lies within J
        assert got == 0.0


def test_wrap_requires_matching_window():
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(Q.hadamard_coins(), (-10, 10))
    with pytest.raises(ValueError):
        walk.step(st)


def test_walk_state_validations():
    with pytest.raises(ValueError):
        Q.WalkState(n_lo=0, amplitudes=np.ones((3, 2)))
    with pytest.raises(ValueError):
        Q.WalkState.delta(0, "x")


def test_to_cmv_identity_coins_is_free():
    rep = Q.to_cmv(Q.identity_coins(), window=(0, 7))
    assert rep.residual < 1e-12
    assert all(rep.seq(m) == 0 for m in range(-8, 9))


def _dense(ab):
    """The n x n matrix of a cyclic (5, n) banded form: row 2 + d holds (j + d mod n, j)."""
    n = ab.shape[1]
    out = np.zeros((n, n), dtype=complex)
    for d in range(-2, 3):
        np.add.at(out, ((np.arange(n) + d) % n, np.arange(n)), ab[2 + d])
    return out


def test_to_cmv_bandwidth():
    rep = Q.to_cmv(Q.identity_coins(), window=(-4, 3))
    U = Q.build_walk(Q.identity_coins(), (-4, 3)).matrix()
    n = U.shape[0]
    i, j = np.indices((n, n))
    dist = np.minimum(np.abs(i - j), n - np.abs(i - j))
    assert np.max(np.abs(U[dist > 2])) == 0.0
    # the banded form holds the whole transposed walk window
    assert rep.matrix.shape == (5, n)
    np.testing.assert_array_equal(_dense(rep.matrix), U.T)


def test_to_cmv_round_trip_random(rng):
    for _ in range(50):
        p = int(rng.integers(1, 5))
        gs = 0.7 * rng.random(p) * np.exp(2j * math.pi * rng.random(p))
        coins = Q.cgmv_coins(C.periodic_table_seq(gs))
        rep = Q.to_cmv(coins, window=(-4, 5))
        assert rep.residual < 1e-12
        assert rep.seq.period == 2 * p
        for n in range(-3, 4):
            assert rep.seq(2 * n + 1) == pytest.approx(gs[n % p], abs=1e-14)
            assert rep.seq(2 * n) == 0


def test_to_cmv_any_window_parity(rng):
    gs = 0.6 * rng.random(3) * np.exp(2j * math.pi * rng.random(3))
    coins = Q.cgmv_coins(C.periodic_table_seq(gs))
    for win in [(-7, 4), (0, 2), (-3, -1), (5, 20)]:
        assert Q.to_cmv(coins, window=win).residual < 1e-13


_TO_CMV_WINDOWS = [(-7, 4), (0, 2), (-3, -1), (5, 20), (-6, -5), (1, 2), (-9, 0)]


def _dense_residual(coins, window, seq):
    """The dense oracle: the cyclic walk matrix, transposed, against the CMV
    window that assemble_cmv builds from seq shifted to the window's first
    flat index 2 n_lo + 1."""
    walk = Q.build_walk(coins, window)
    ref = O.assemble_cmv(O.shift_seq(seq, 2 * window[0] + 1), 0, 2 * walk.width)
    return float(np.max(np.abs(walk.matrix().T - ref)))


@pytest.mark.parametrize("kind", ["period_3", "quasiperiodic"])
@pytest.mark.parametrize("window", _TO_CMV_WINDOWS)
def test_to_cmv_banded_check_agrees_with_the_dense_oracle(rng, kind, window):
    # odd and even n_lo and widths, negative n_lo, two-site windows
    if kind == "period_3":
        gamma = C.periodic_table_seq(0.6 * rng.random(3) * np.exp(2j * math.pi * rng.random(3)))
    else:
        gamma = C.quasiperiodic_seq(0.7, 0.6180339887498949, 0.2)
    coins = Q.cgmv_coins(gamma)
    rep = Q.to_cmv(coins, window=window)
    np.testing.assert_array_equal(_dense(rep.matrix), Q.build_walk(coins, window).matrix().T)
    dense = _dense_residual(coins, window, rep.seq)
    assert dense < 1e-13
    assert abs(rep.residual - dense) <= 1e-15


def test_to_cmv_on_quasiperiodic_gamma():
    g = C.quasiperiodic_seq(0.7, 0.6180339887498949, 0.2)
    coins = Q.cgmv_coins(g)
    rep = Q.to_cmv(coins, window=(-40, 87))
    assert rep.residual <= 1e-13
    assert rep.residual == _dense_residual(coins, (-40, 87), rep.seq)
    assert rep.seq.period is None
    # alpha_hat_{2n+1} = gamma_n and alpha_hat_{2n} = 0, by the explicit index rule
    m = np.arange(-301, 300)
    want = [0j if k % 2 == 0
            else 0.7 * cmath.exp(2j * math.pi * ((k - 1) // 2 * 0.6180339887498949 + 0.2))
            for k in m.tolist()]
    np.testing.assert_array_equal(rep.seq.window(m), want)
    # a wide window costs O(W)
    assert Q.to_cmv(coins, window=(-2048, 2047)).residual <= 1e-13


def test_to_cmv_reports_offending_site():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    table = [h if n == 3 else np.eye(2) for n in range(8)]

    with pytest.raises(CoinGaugeError) as err:
        Q.to_cmv(Q.table_coins(table), window=(0, 7))
    assert err.value.site == 3


def test_to_cmv_refuses_a_non_unitary_coin_read_outside_the_window():
    # site 3 has the gauge form with rho^2 + |g|^2 = 0.5: only the window
    # (sites 0, 1) is checked at construction, every later read is checked too
    table = [np.eye(2), np.eye(2), np.eye(2), [[0.5, -0.5], [0.5, 0.5]]]
    rep = Q.to_cmv(Q.table_coins(table), window=(0, 1))
    assert rep.seq(5) == 0
    with pytest.raises(ValueError, match="coin at site 3 is not unitary"):
        rep.seq(7)  # alpha_hat_{2n+1} = gamma_n at n = 3
    with pytest.raises(ValueError, match="coin at site -1 is not unitary"):
        rep.seq.window(-4, 4)


def test_to_cmv_of_periodic_coins_reads_every_period():
    # the window (sites 0, 1) misses gamma_2 = 0.95; reads past it return it
    rep = Q.to_cmv(Q.cgmv_coins(C.periodic_table_seq([0.1, 0.2, 0.95])), window=(0, 1))
    assert np.max(np.abs(rep.seq.window(-12, 12))) == 0.95


def test_to_cmv_reads_gamma_past_its_window():
    # gamma_5 = 0.9 lies past the window (sites 0 .. 3), where every gamma
    # is 0.1: alpha_hat_11 = gamma_5 is read from its coin and returned
    gamma = C.CoefficientSequence(fn=lambda n: np.where(n >= 5, 0.9, 0.1) + 0j)
    rep = Q.to_cmv(Q.cgmv_coins(gamma), window=(0, 3))
    assert np.max(np.abs(rep.seq.window(-20, 10))) == 0.1
    assert rep.seq(11) == 0.9
    np.testing.assert_array_equal(rep.seq.window(9, 13), [0.1, 0.0, 0.9, 0.0])


def test_coin_map_of_the_wrong_shape_is_refused():
    coins = Q.CoinSequence(fn=lambda n: np.eye(2))
    with pytest.raises(ValueError, match=r"coin map must return shape \(3, 2, 2\)"):
        coins(np.arange(3))


def test_scattering_surrogate_decreasing():
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(Q.hadamard_coins(), (st.n_lo, st.n_hi))
    surv = [Q.survival_probability(st, walk, 5, t) for t in (128, 256, 512)]
    assert surv[0] > surv[1] > surv[2]
    assert surv[2] < 0.2


def test_absorbing_step_guards_edge_amplitude():
    from cmvlab.errors import NumericalInstabilityError

    st = Q.WalkState.delta(0, "+", pad=1)
    walk = Q.build_walk(Q.identity_coins(), (st.n_lo, st.n_hi))
    mid = walk.step(st)  # walker now at the right edge
    with pytest.raises(NumericalInstabilityError, match="enlarge"):
        walk.step(mid)


def test_certificates_refuse_nan(monkeypatch):
    # NaN compares false with every tolerance, so each certificate must
    # refuse a value that is not <= its bound rather than accept one > it
    from cmvlab.errors import NumericalInstabilityError

    with pytest.raises(ValueError, match="not unitary"):
        Q.build_walk(Q.constant_coins(np.array([[math.nan, 0], [0, 1]])), (0, 4))

    table = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2))
    amp = np.zeros((5, 2), dtype=complex)
    amp[-1, 0] = math.nan  # moves past the right edge
    with pytest.raises(NumericalInstabilityError, match="absorbing boundary"):
        Q._absorbing_step(Q._coin_columns(table), amp.T)

    # a NaN coin table past build_walk's unitarity check reaches the chain
    # update, and the norm drift refuses the result
    st = Q.WalkState.delta(0, "+")
    walk = Q.build_walk(Q.hadamard_coins(), (st.n_lo, st.n_hi))
    columns = Q._coin_columns
    monkeypatch.setattr(Q, "_coin_columns",
                        lambda table: np.full_like(columns(table), math.nan))
    with pytest.raises(NumericalInstabilityError, match="drifted"):
        Q.evolve(st, walk, 3)
