import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import operator as O
from cmvlab import transfer as T
from cmvlab.spectral_sets import TWO_PI, CircleArcSet


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def unit(theta):
    return cmath.exp(1j * theta)


def test_szego_free():
    z = unit(0.7)
    np.testing.assert_allclose(T.szego(0.0, z), [[z, 0], [0, 1]], atol=0)


def test_szego_rejects():
    with pytest.raises(ValueError):
        T.szego(1.0, 1.0)
    with pytest.raises(ValueError):
        T.szego(0.3, 0.0)


NAN_SEQ = C.CoefficientSequence(lambda n: np.full(n.shape, complex(math.nan, 0.0)))


def test_szego_refuses_nan():
    with pytest.raises(ValueError, match="z must be nonzero"):
        T.szego(0.1, math.nan)
    with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
        T.szego(math.nan, 0.5)


def test_gz_step_refuses_nan():
    with pytest.raises(ValueError, match="z must be nonzero"):
        T.gz_step(C.constant_seq(0.1), 0, complex(math.nan, 0.0))
    with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
        T.gz_step(NAN_SEQ, 1, 0.5)


def test_det_identities(rng):
    s = C.periodic_table_seq(0.6 * rng.random(4) * np.exp(2j * np.pi * rng.random(4)))
    for _ in range(300):
        a = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        z = unit(TWO_PI * rng.random())
        assert abs(abs(np.linalg.det(T.szego(a, z))) - 1.0) < 1e-13
        n = int(rng.integers(-6, 7))
        assert abs(np.linalg.det(T.gz_step(s, n, z)) + 1.0) < 1e-13


def test_sieving_identity(rng):
    for _ in range(300):
        a = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        z = unit(TWO_PI * rng.random())
        lhs = T.szego(a, z) @ T.szego(0.0, z)
        rhs = T.szego(a, z * z)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_gz_free_forms():
    free = C.constant_seq(0.0)
    z = unit(1.1)
    np.testing.assert_allclose(T.gz_step(free, 0, z), [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(T.gz_step(free, 1, z), [[0, z], [1 / z, 0]], atol=0)


def test_gz_inversion_identity(make_periodic):
    s = make_periodic(4, radius=0.7)
    z = unit(0.4)
    for n in (1, 3, -1):
        a = complex(s(n))
        rho = math.sqrt(1 - abs(a) ** 2)
        inv = np.array([[a, z], [1 / z, a.conjugate()]], dtype=complex) / rho
        prod = T.gz_step(s, n, z) @ inv
        assert np.max(np.abs(prod - np.eye(2))) < 1e-13


def test_monodromy_free_q2():
    free = C.constant_seq(0.0)
    theta = 0.9
    z = unit(theta)
    phi = T.monodromy(free, 2, z)
    np.testing.assert_allclose(phi, [[z, 0], [0, 1 / z]], atol=1e-15)
    assert np.trace(phi).real == pytest.approx(2 * math.cos(theta), abs=1e-15)


def test_monodromy_rejects_odd_q():
    with pytest.raises(ValueError):
        T.monodromy(C.constant_seq(0.0), 3, 1.0)


def test_monodromy_det_and_real_trace(make_periodic, rng):
    for _ in range(100):
        q = int(rng.choice([2, 4, 6]))
        s = make_periodic(q, radius=0.7)
        z = unit(TWO_PI * rng.random())
        phi = T.monodromy(s, q, z)
        assert abs(np.linalg.det(phi) - 1.0) < 1e-12
        assert abs(np.trace(phi).imag) < 1e-12


def test_monodromy_band_edge_constant_half():
    # at z = -1 the discriminant of the constant-0.5 operator touches -2,
    # so -1 belongs to the spectrum; the wrap window must see it
    s = C.constant_seq(0.5)
    tr = np.trace(T.monodromy(s, 2, -1.0 + 0j))
    assert tr.real == pytest.approx(-2.0, abs=1e-12)
    e = O.assemble_cmv(s, 0, 512)
    eig = np.linalg.eigvals(e)
    assert np.min(np.abs(eig - (-1.0))) < 1e-10


def test_lyapunov_free_vanishes():
    free = C.constant_seq(0.0)
    for th in (0.0, 0.5, 2.2):
        assert T.lyapunov(free, unit(th)) == pytest.approx(0.0, abs=1e-14)


def test_lyapunov_constant_gap_closed_form():
    # the gap of the constant-0.5 operator covers |theta| < pi/3
    s = C.constant_seq(0.5)
    z = unit(0.1)
    got = T.lyapunov(s, z)
    eig = np.linalg.eigvals(T.szego(0.5, z))
    expected = math.log(np.max(np.abs(eig)))
    assert got == pytest.approx(expected, abs=1e-10)
    assert got > 0.1


def test_lyapunov_constant_band_small():
    assert T.lyapunov(C.constant_seq(0.5), unit(2.0)) < 1e-3


def test_lyapunov_birkhoff_matches_exact():
    exact_seq = C.constant_seq(0.5)
    raw = C.CoefficientSequence(fn=lambda n: np.full(n.shape, 0.5 + 0j))
    for th in (0.1, 2.0):
        ex = T.lyapunov(exact_seq, unit(th))
        bk = T.lyapunov(raw, unit(th), n_steps=100_000)
        assert bk == pytest.approx(ex, abs=2e-3)


def test_lyapunov_validations():
    raw = C.CoefficientSequence(fn=lambda n: np.zeros(n.shape, complex))
    with pytest.raises(ValueError):
        T.lyapunov(raw, 0.5)
    with pytest.raises(ValueError):
        T.lyapunov(raw, 1.0, n_steps=0)


def test_lyapunov_nonnegative_birkhoff():
    qp = C.quasiperiodic_seq(0.5, GOLDEN, 0.2)
    for j in range(10):
        val = T.lyapunov(qp, unit(0.1 + j * 0.6), n_steps=20_000)
        assert val >= -1e-4


def test_lyapunov_sieving_exact_relation(make_periodic):
    # per-site normalization: the sieved exponent is half the base exponent
    # at the squared point
    z = np.array([unit(th) for th in (0.1, 0.7, 1.9, 3.0)])
    for s in (C.constant_seq(0.5), make_periodic(2, radius=0.6)):
        lhat = T.lyapunov(O.sieve(s), z)
        lsq = T.lyapunov(s, z * z)
        for a, b in zip(lhat, lsq):
            assert a == pytest.approx(0.5 * b, abs=1e-10)


def test_lyapunov_sieving_birkhoff_invariant():
    qp = C.quasiperiodic_seq(0.4, GOLDEN, 0.1)
    z = np.array([unit((j + 0.3) * TWO_PI / 20) for j in range(20)])
    lhat = T.lyapunov(O.sieve(qp), z, n_steps=100_000)
    lsq = T.lyapunov(qp, z * z, n_steps=100_000)
    for a, b in zip(lhat, lsq):
        assert abs(a - 0.5 * b) < 2e-3


def zero_set(seq, n, n_steps, eps_L=1e-2):
    angles = np.arange(n) * TWO_PI / n
    return T.arcs_from_grid(angles, T.lyapunov(seq, np.exp(1j * angles), n_steps), eps_L)


def test_estimate_z_free_full_circle():
    out = zero_set(C.constant_seq(0.0), 64, 1000)
    assert out.is_full()
    assert out.measure() == pytest.approx(TWO_PI)


def test_estimate_z_constant_half_matches_bands():
    from cmvlab import floquet

    s = C.constant_seq(0.5)
    n = 512
    z_est = zero_set(s, n, 100_000)
    bands = floquet.periodic_spectrum(s, 2)
    cell = TWO_PI / n
    assert z_est.hausdorff(bands) < cell


def test_estimate_z_sieved_preimage():
    from cmvlab import floquet

    s = C.constant_seq(0.5)
    n = 512
    z_hat = zero_set(O.sieve(s), n, 100_000)
    pre = floquet.periodic_spectrum(s, 2).preimage_double()
    assert z_hat.hausdorff(pre) < TWO_PI / n


def test_arcs_from_grid_wrapping_run():
    angles = np.arange(8) * TWO_PI / 8
    values = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    arcs = T.arcs_from_grid(angles, values, 0.5)
    assert arcs.arcs.shape == (1, 2)
    # run covers grid points 7, 0, 1: two grid intervals
    assert arcs.measure() == pytest.approx(2 * TWO_PI / 8, abs=1e-12)
    assert arcs.contains(0.0) and arcs.contains(angles[7]) and not arcs.contains(angles[3])


def test_arcs_from_grid_isolated_point():
    angles = np.arange(8) * TWO_PI / 8
    values = np.ones(8)
    values[3] = 0.0
    arcs = T.arcs_from_grid(angles, values, 0.5)
    assert arcs.measure() == 0.0
    assert arcs.contains(angles[3])


@pytest.mark.parametrize("name, angles, values", [
    ("values", [0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
    ("angles", [0.0, 1.0, math.nan], [1.0, 1.0, 0.0]),
])
def test_arcs_from_grid_refuses_nan(name, angles, values):
    with pytest.raises(ValueError, match=f"{name} must not be NaN"):
        T.arcs_from_grid(angles, values, 0.5)


def arcs_from_grid_loop(angles, values, eps_L):
    """The per-point loop that ``arcs_from_grid`` replaced, kept as its
    reference: cyclic runs of marked points, the last joined to the first
    when both ends of the grid are marked."""
    angles = np.asarray(angles, dtype=float)
    below = np.asarray(values, dtype=float) < eps_L
    if np.all(below):
        return CircleArcSet.full_circle()
    if not np.any(below):
        return CircleArcSet.empty()
    n = angles.size
    arcs = []
    start = None
    first_run_wraps = below[0] and below[-1]
    for i in range(n):
        if below[i] and start is None:
            start = i
        if start is not None and (i == n - 1 or not below[i + 1]):
            if below[i]:
                arcs.append((start, i))
                start = None
    if first_run_wraps and len(arcs) >= 2:
        s_last, e_last = arcs.pop()
        s_first, e_first = arcs.pop(0)
        arcs.append((s_last, e_first + n))
    out = []
    for s, e in arcs:
        lo = angles[s % n]
        hi = angles[e % n] + (TWO_PI if e >= n else 0.0)
        out.append((lo, hi))
    return CircleArcSet.from_arcs(out)


@st.composite
def grid_masks(draw):
    """A sorted grid of angles in [0, 2 pi) and a mask of its points: random,
    all or none marked, single points, alternating, or runs that wrap."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "all", "none", "single", "alternating", "wrap"]))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif kind == "single":
        mask = np.zeros(n, dtype=bool)
        mask[draw(st.integers(0, n - 1))] = True
    elif kind == "alternating":
        mask = np.arange(n) % 2 == draw(st.integers(0, 1))
    elif kind == "wrap":
        head, tail = draw(st.integers(1, n)), draw(st.integers(1, n))
        mask = (np.arange(n) < head) | (np.arange(n) >= n - tail)
        mask[draw(st.integers(0, n - 1))] = False
    else:
        mask = np.full(n, kind == "all")
    jitter = draw(st.floats(0.0, 0.9))
    angles = (np.arange(n) + jitter) * (TWO_PI / n)
    return angles, np.where(mask, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(grid=grid_masks())
@example(grid=(np.arange(8) * TWO_PI / 8, np.array([0.0, 0, 1, 1, 1, 1, 1, 0])))
@example(grid=(np.arange(5) * TWO_PI / 5, np.array([0.0, 1, 0, 1, 0])))
def test_arcs_from_grid_equals_the_loop_bit_for_bit(grid):
    angles, values = grid
    got = T.arcs_from_grid(angles, values, 0.5).arcs
    want = arcs_from_grid_loop(angles, values, 0.5).arcs
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_step_determinants(make_periodic, rng):
    s = make_periodic(2)
    for _ in range(50):
        z = unit(TWO_PI * rng.random())
        n = int(rng.integers(-6, 7))
        assert abs(np.linalg.det(T.szego(s(n), z)) - z) < 1e-13
        assert abs(np.linalg.det(T.gz_step(s, n, z)) + 1.0) < 1e-13
