import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import transfer
from cmvlab import weyl as W
from cmvlab.errors import TruncationInstabilityError, WeylDenominatorError
from cmvlab.spectral_sets import CircleArcSet


FREE = C.constant_seq(0.0)


def test_z_zero_exact(make_periodic):
    s = make_periodic(3, radius=0.6)
    assert W.m_plus(s, 0, 0.0, dim=64) == pytest.approx(1.0, abs=1e-12)
    assert W.m_minus(s, 0, 0.0, dim=64) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, -3])
def test_free_weyl_values(k):
    z = 0.3 + 0.2j
    assert W.m_plus(FREE, k, z, dim=256) == pytest.approx(1.0, abs=1e-10)
    assert W.m_minus(FREE, k, z, dim=256) == pytest.approx(-1.0, abs=1e-10)


def test_weyl_values_are_complex_numbers(make_periodic):
    s = make_periodic(2, radius=0.5)
    for f in (W.m_plus, W.m_minus):
        assert type(f(s, 0, 0.3 + 0.2j, dim=64)) is complex


def test_caratheodory_signs(rng):
    for _ in range(250):
        q = int(rng.integers(1, 4))
        vals = 0.7 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        s = C.periodic_table_seq(vals)
        r = 0.9 * rng.random()
        z = r * np.exp(2j * math.pi * rng.random())
        k = int(rng.integers(-4, 5))
        assert W.m_plus(s, k, z, dim=256).real > -1e-8
        assert W.m_minus(s, k, z, dim=256).real < 1e-8


def test_truncation_stability(make_periodic):
    s = make_periodic(2, radius=0.5)
    z = 0.95 * cmath.exp(0.4j)
    v1 = W.m_plus(s, 0, z, dim=512)
    v2 = W.m_plus(s, 0, z, dim=1024)
    assert abs(v1 - v2) < 1e-8


def test_truncation_instability_raises():
    # the free spectrum is the whole circle, so z this close to it cannot be
    # resolved by a short window
    z = (1 - 2e-6) * cmath.exp(0.1j)
    with pytest.raises(TruncationInstabilityError):
        W.m_plus(FREE, 0, z, dim=64)


def test_rejects_near_circle():
    with pytest.raises(ValueError):
        W.m_plus(FREE, 0, 1.0 - 1e-7, dim=64)


def test_free_M_coefficients():
    z = 0.5 + 0.1j
    mp, mm = W.M_coefficients(FREE, 0, z, dim=256)
    assert mp == pytest.approx(1.0, abs=1e-10)
    assert mm == pytest.approx(-1.0, abs=1e-10)


def test_M_plus_is_shifted_m_plus(make_periodic):
    s = make_periodic(3, radius=0.5)
    z = 0.4 * cmath.exp(1.2j)
    mp, _ = W.M_coefficients(s, 2, z, dim=256)
    assert mp == pytest.approx(W.m_plus(s, 1, z, dim=256), abs=1e-12)


def test_M_minus_real_alpha_reduction():
    s = C.constant_seq(0.3)
    z = 0.5 * cmath.exp(0.8j)
    _, mm = W.M_coefficients(s, 0, z, dim=256)
    m2 = W.m_minus(s, -2, z, dim=256)
    simplified = (1.0 - 0.3) / ((1.0 + 0.3) * m2)
    assert mm == pytest.approx(simplified, abs=1e-12)


def test_M_minus_denominator_guard():
    with pytest.raises(WeylDenominatorError):
        W._m_minus_to_M(0.0 + 0j, 1e-13 + 0j, 0.5)


def test_reflectionless_defect_free():
    d = W.reflectionless_defect(
        FREE, 0, CircleArcSet.full_circle(), 0.99, samples=16, dim=2048
    )
    assert 0.0 <= d < 1e-8


def test_reflectionless_defect_decreases_on_band():
    s = C.constant_seq(0.5)
    core = CircleArcSet.from_arcs([(math.pi / 3 + 0.3, 5 * math.pi / 3 - 0.3)])
    d_09 = W.reflectionless_defect(s, 0, core, 0.9, samples=16, dim=1024)
    d_099 = W.reflectionless_defect(s, 0, core, 0.99, samples=16, dim=4096)
    assert d_099 < d_09


def test_reflectionless_defect_validations():
    full = CircleArcSet.full_circle()
    with pytest.raises(ValueError):
        W.reflectionless_defect(FREE, 0, full, 0.5)
    with pytest.raises(ValueError):
        W.reflectionless_defect(FREE, 0, full, 0.95, samples=4)
    with pytest.raises(ValueError):
        W.reflectionless_defect(FREE, 0, CircleArcSet.empty(), 0.95)


def test_reflectionless_defect_at_a_radius_just_below_the_edge_margin():
    # r passes the r < 1 check and lies below the solver's bound 1 - 1e-6, but
    # r e^{i theta} rounds |z| up to that bound at some angles
    r = float(np.nextafter(1.0 - 1e-6, 0.0))
    s = C.constant_seq(0.3)
    # on the spectrum a 64-site window is too short this close to the
    # circle: the Weyl disk refuses, not the |z| check
    with pytest.raises(TruncationInstabilityError):
        W.reflectionless_defect(s, 0, CircleArcSet.full_circle(), r, samples=64, dim=64)
    # in the gap around z = 1 the 64-site values agree with 256-site ones to
    # 3.5e-12 relative, the rounding of values near 200, but their Weyl disks
    # are 4.1e-7 wide, so they are refused too
    gap = CircleArcSet.from_arcs([(-0.3, 0.3)])
    z = np.array([(r - 1e-12) * cmath.exp(1j * th) for th in gap.sample(64)])
    bases = [(-1, "plus"), (-2, "minus")]
    (v64, diameter), (v256, _) = (W._halfline_values(s, bases, z, n) for n in (64, 256))
    assert np.max(np.abs(v64 - v256) / np.abs(v256)) < 1e-11
    assert 1e-7 < diameter.max() < 1e-6
    with pytest.raises(TruncationInstabilityError, match="diameter 4.1"):
        W.reflectionless_defect(s, 0, gap, r, samples=64, dim=64)
    # every point resolves on a 128-site window
    d = W.reflectionless_defect(s, 0, gap, r, samples=64, dim=128)
    mp, mm = W.M_coefficients(s, 0, z, dim=128)
    assert d == pytest.approx(np.abs(mp + mm.conj()).max(), rel=1e-6)


@pytest.mark.parametrize("r", [0.9999995, 1.0 - 1e-6])
def test_reflectionless_defect_refuses_radii_the_solver_refuses(r):
    # the solver refuses |z| >= 1 - 1e-6, so the r check names those radii itself
    with pytest.raises(ValueError, match=r"r must lie in \[0\.9, 1 - 1e-6\)"):
        W.reflectionless_defect(C.constant_seq(0.0), 0, CircleArcSet.full_circle(), r,
                                samples=16, dim=64)


# ---------------------------------------------------------------------------
# batched evaluation against the per-point algorithm
# ---------------------------------------------------------------------------

def _rho(a):
    return math.sqrt(max(0.0, 1.0 - abs(a) ** 2))


def _halfline_oracle(seq, k, z, dim, side):
    """One point at a time: the window rebuilt site by site from the row
    formulas, one banded solve, then (E + z) x read at the base site."""
    import scipy.linalg

    if side == "plus":
        lo, hi, loc = k, k + dim - 1, 0
    else:
        lo, hi, loc = k - dim + 1, k, dim - 1
    a = {m: (-1.0 + 0j if m in (lo - 1, hi) else complex(seq(m)))
         for m in range(lo - 2, hi + 3)}
    r = {m: _rho(v) for m, v in a.items()}
    dense = np.zeros((dim, dim), dtype=complex)
    for g in range(lo, hi + 1):
        if g % 2 == 0:
            row = {g - 1: a[g].conjugate() * r[g - 1], g: -a[g].conjugate() * a[g - 1],
                   g + 1: a[g + 1].conjugate() * r[g], g + 2: r[g + 1] * r[g]}
        else:
            row = {g - 2: r[g - 1] * r[g - 2], g - 1: -r[g - 1] * a[g - 2],
                   g: -a[g].conjugate() * a[g - 1], g + 1: -r[g] * a[g - 1]}
        for col, v in row.items():
            if lo <= col <= hi:
                dense[g - lo, col - lo] = v
    ab = np.zeros((5, dim), dtype=complex)
    for d in range(-2, 3):
        for j in range(dim):
            if 0 <= j + d < dim:
                ab[2 + d, j] = dense[j + d, j]
    shifted = ab.copy()
    shifted[2] -= z
    rhs = np.zeros(dim, dtype=complex)
    rhs[loc] = 1.0
    x = scipy.linalg.solve_banded((2, 2), shifted, rhs)
    return complex((dense @ x + z * x)[loc])


def _M_oracle(seq, k, z, dim):
    mp = _halfline_oracle(seq, k - 1, z, dim, "plus")
    m2 = -_halfline_oracle(seq, k - 2, z, dim, "minus")
    a = complex(seq(k)).conjugate()
    num = (1.0 - a).real + 1j * (1.0 + a).imag * m2
    den = 1j * (1.0 - a).imag + (1.0 + a).real * m2
    return mp, num / den


@pytest.mark.parametrize("k", [0, 3, -2])
def test_batched_M_coefficients_match_per_point_oracle(rng, k):
    for q in (1, 3, 4):
        vals = 0.6 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        s = C.periodic_table_seq(vals)
        z = 0.8 * rng.random(12) ** 0.5 * np.exp(2j * math.pi * rng.random(12))
        mp, mm = W.M_coefficients(s, k, z, dim=128)
        assert mp.shape == mm.shape == (12,)
        for i, zi in enumerate(z):
            op, om = _M_oracle(s, k, zi, 128)
            assert abs(mp[i] - op) <= 1e-14
            assert abs(mm[i] - om) <= 1e-14 * max(1.0, abs(om))


disk_tables = st.lists(
    st.builds(lambda r, t: r * cmath.exp(2j * math.pi * t),
              st.floats(0.0, 0.95), st.floats(0.0, 1.0)),
    min_size=1, max_size=8,
).map(C.periodic_table_seq)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(seq=disk_tables, half_k=st.integers(-3, 3), r=st.sampled_from([0.9, 0.95, 0.99]),
       turns=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_schur_recursion_matches_banded_solve(side, parity, seq, half_k, r, turns):
    k = 2 * half_k + parity
    z = r * np.exp(2j * math.pi * np.array(turns))
    got = W._halfline_values(seq, [(k, side)], z, 128)[0][0]
    want = np.array([_halfline_oracle(seq, k, zi, 128, side) for zi in z])
    # the resolvent at distance 1 - r from the spectrum amplifies rounding
    assert np.max(np.abs(got - want)) <= 128 * np.finfo(float).eps * r * (1 + r) / (1 - r) ** 2


def _halfline_loop(seq, k, z, dim, side):
    """The per-window backward Schur recursion: one window of dim sites,
    started from the cut -1, one point-array step per parameter."""
    if side == "plus":
        a = seq.window(k, k + dim - 1)[::-1]
    else:
        a = seq.window(k - dim + 1, k).conj()
    f = np.full(z.shape, -1.0 + 0j)
    for aj, aj_bar in zip(a.tolist(), a.conj().tolist()):
        zf = z * f
        f = (aj + zf) / (1.0 + aj_bar * zf)
    zf = z * f
    return (1.0 + zf) / (1.0 - zf)


def _mpmath_schur(seq, k, z, dim, side, starts, dps=50):
    """The same recursion in mpmath at dps digits, one point at a time, from
    each start at the far cut: per point, the list of mpmath values F."""
    a = seq.window(k, k + dim - 1)[::-1] if side == "plus" else seq.window(k - dim + 1, k).conj()
    out = []
    with mpmath.workdps(dps):
        a = [mpmath.mpc(v) for v in a.tolist()]
        for zi in z.tolist():
            zz, row = mpmath.mpc(zi), []
            for start in starts:
                f = mpmath.mpc(start)
                for aj in a:
                    zf = zz * f
                    f = (aj + zf) / (1 + mpmath.conj(aj) * zf)
                zf = zz * f
                row.append((1 + zf) / (1 - zf))
            out.append(row)
    return out


def _mpmath_halfline(seq, k, z, dim, side, dps=50):
    """The recursion from the cut -1 in mpmath, as doubles."""
    return np.array([complex(row[0]) for row in _mpmath_schur(seq, k, z, dim, side, [-1], dps)])


def _mpmath_disk_diameter(seq, k, z, dim, side):
    """The diameter of the circle through the values of the starts 1, i and
    -1, the image of the unit circle, at 50 digits."""
    out = []
    with mpmath.workdps(50):
        for p1, p2, p3 in _mpmath_schur(seq, k, z, dim, side, [1, 1j, -1]):
            twice_area = abs(mpmath.im(mpmath.conj(p2 - p1) * (p3 - p1)))
            out.append(float(abs(p1 - p2) * abs(p2 - p3) * abs(p3 - p1) / twice_area))
    return np.array(out)


def _a_priori_diameter(dim, r):
    """Schwarz-Pick's bound on the Weyl disk of any window of dim sites at
    |z| = r: the first step's image of the closed disk has hyperbolic
    diameter 2 log((1 + r) / (1 - r)), each of the dim - 1 products with z
    contracts it by r, and F = (1 + w) / (1 - w) stretches by at most
    2 / (1 - r)^2 the Euclidean distances, at most half the hyperbolic ones."""
    return math.exp((dim - 1) * math.log(r) - 2 * math.log1p(-r)
                    + math.log(2 * math.log((1 + r) / (1 - r))))


def _resolvent_bound(dim, r, want):
    """The banded-solve test's bound, scaled to a window of dim sites, plus
    8 ulps of each value for the rounding of F = (1 + z f) / (1 - z f) itself,
    which does not shrink with r."""
    eps = np.finfo(float).eps
    return dim * eps * r * (1 + r) / (1 - r) ** 2 + 8 * eps * np.abs(want)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


sequences = st.one_of(
    disk_tables,
    st.builds(C.quasiperiodic_seq, st.floats(0.0, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)


# periodic windows of n = dim - 1 steps run p = min(period, n) of them and
# power their product: n < p, n = p, n = m p and n = m p + r
_POWERED = C.periodic_table_seq([0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j, 0.45, -0.6j])


@example(seq=_POWERED, k=1, dim=4, r=0.9, turns=[0.1, 0.6])
@example(seq=_POWERED, k=-3, dim=6, r=0.9, turns=[0.1, 0.6])
@example(seq=_POWERED, k=2, dim=16, r=0.9, turns=[0.1, 0.6])
@example(seq=_POWERED, k=0, dim=4097, r=0.9, turns=[0.1, 0.6])
@example(seq=C.periodic_table_seq([0.5, 0.2j, -0.4, 0.1 + 0.3j]), k=5, dim=4097, r=0.9,
         turns=[0.3, 0.8])
@settings(max_examples=30, deadline=None)
@given(seq=sequences, k=st.integers(-5, 5), dim=st.sampled_from([4, 5, 9, 17, 64, 512, 4097]),
       r=st.floats(0.0, 0.9), turns=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_stacked_halfline_values_match_the_per_window_recursion(seq, k, dim, r, turns):
    z = r * np.exp(2j * math.pi * np.array(turns))
    bases = [(k - 1, "plus"), (k - 2, "minus"), (k, "minus"), (k + 3, "plus")]
    got, _ = W._halfline_values(seq, bases, z, dim)
    for row, (base, side) in zip(got, bases):
        want = _halfline_loop(seq, base, z, dim, side)
        assert np.all(np.abs(row - want) <= _resolvent_bound(dim, r, want))
    try:
        mp, mm = W.M_coefficients(seq, k, z, dim)
    except (TruncationInstabilityError, WeylDenominatorError):
        return
    # M_coefficients reads the first two bases' windows
    assert np.array_equal(bits(mp), bits(got[0]))
    m2 = -got[1]
    assert np.array_equal(bits(mm), bits(W._m_minus_to_M(complex(seq(k)), m2, z)))
    # m_plus and m_minus take the same path with one row and one point
    one = [(W.m_plus(seq, k - 1, zi, dim), W.m_minus(seq, k - 2, zi, dim))
           for zi in z.tolist()]
    assert np.array_equal(bits(np.array(one)), bits(np.column_stack([mp, m2])))


@pytest.mark.parametrize("seq, r", [
    # near the circle: each base's lane is a Szego product of 4095 steps,
    # applied as a Mobius map only at the end
    (C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.2), 0.999),
    # far from it: the free lanes (period 1, powered) have first columns
    # z^4095, below the smallest normal double, and every value must stay finite
    (FREE, 0.2),
    (C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.2), 0.2),
    # a period-4 table near the circle: each lane is 4 steps, powered
    (C.periodic_table_seq([0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j, 0.45]), 0.999),
])
def test_long_windows_match_mpmath_schur_values(seq, r):
    dim = 4096
    z = r * np.exp(2j * math.pi * np.array([0.05, 0.71]))
    bases = [(3, "plus"), (-2, "minus")]
    got, _ = W._halfline_values(seq, bases, z, dim)
    assert np.all(np.isfinite(got))
    for row, (base, side) in zip(got, bases):
        want = _mpmath_halfline(seq, base, z, dim, side)
        assert np.all(np.abs(row - want) <= _resolvent_bound(dim, r, want))


def test_halfline_values_run_one_lane_of_dim_minus_one_steps_per_window(monkeypatch):
    calls, read = [], []
    advance = transfer._advance

    def spy(seq, zs, starts, length, cols, snap=0):
        calls.append((starts.tolist(), length, cols))
        return advance(seq, zs, starts, length, cols, snap)

    def fn(n):
        read.append(np.sort(n.ravel()).tolist())
        return base_seq.window(n)

    monkeypatch.setattr(transfer, "_advance", spy)
    base_seq = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.2)
    seq = C.CoefficientSequence(fn)
    bases = [(3, "plus"), (-2, "minus"), (0, "minus"), (7, "plus")]
    dim = 64
    W._halfline_values(seq, bases, 0.9 * np.exp(1j * np.arange(5.0)), dim)
    assert calls == [([0, 63, 126, 189], dim - 1, 2)]
    # each base reads its dim - 1 sites away from the cut, and no other
    assert read == [list(range(k, k + dim - 1)) if side == "plus"
                    else list(range(k - dim + 1, k)) for k, side in bases]


def test_periodic_halfline_values_run_one_period_per_window_and_power_it(monkeypatch):
    calls, read = [], []
    advance = transfer._advance

    def spy(seq, zs, starts, length, cols, snap=0):
        calls.append((starts.tolist(), length, cols, snap))
        return advance(seq, zs, starts, length, cols, snap)

    def fn(n):
        read.append(np.sort(n.ravel()).tolist())
        return _POWERED.window(n)

    monkeypatch.setattr(transfer, "_advance", spy)
    q = _POWERED.period
    seq = C.CoefficientSequence(fn, period=q)
    bases = [(3, "plus"), (-2, "minus"), (0, "minus"), (7, "plus")]
    z = 0.9 * np.exp(1j * np.arange(5.0))
    dim = 64
    got, diameter = W._halfline_values(seq, bases, z, dim)
    # one pass of q steps, with the prefix of (dim - 1) mod q steps
    assert calls == [([0, q, 2 * q, 3 * q], q, 2, (dim - 1) % q)]
    # each base reads the q sites next to its far cut, and no other
    n = dim - 1
    assert read == [list(range(k + n - q, k + n)) if side == "plus"
                    else list(range(k - n, k - n + q)) for k, side in bases]
    # a window of 2**40 sites reads no more: its values lie in the 64-site
    # window's Weyl disk, and its own disks are far below rounding
    calls.clear()
    read.clear()
    far, far_diameter = W._halfline_values(seq, bases, z, 2 ** 40)
    assert calls == [([0, q, 2 * q, 3 * q], q, 2, (2 ** 40 - 1) % q)]
    assert all(len(sites) == q for sites in read)
    assert np.all(np.isfinite(far)) and np.all(far_diameter < 1e-300)
    assert np.all(np.abs(far - got) <= diameter + _resolvent_bound(dim, 0.9, far))


@pytest.mark.parametrize("q", [1, 3, 4, 5])
def test_long_periodic_windows_match_the_fixed_point_of_one_period(rng, q):
    # the half-line Schur function of a period-q sequence is the attracting
    # fixed point w* of one period's Mobius map, so m_plus = F(w*) lies in
    # the Weyl disk of every window; w* from the quadratic formula at 40 digits
    seq = C.periodic_table_seq(0.6 * rng.random(q) ** 0.5 * np.exp(2j * math.pi * rng.random(q)))
    r, dim, k = 0.999, 32768, 3
    z = r * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)
    got = np.array([W.m_plus(seq, k, zi, dim) for zi in z.tolist()])
    (diameter,) = W._halfline_values(seq, [(k, "plus")], z, dim)[1]
    want = []
    with mpmath.workdps(40):
        for zi in z.tolist():
            zz = mpmath.mpc(zi)
            m = mpmath.eye(2)
            for a in seq.window(k, k + q).tolist():
                m = m * mpmath.matrix([[zz, a], [mpmath.conj(a) * zz, 1]])
            # w = (a w + b) / (c w + d): c w^2 + (d - a) w - b = 0
            a_d, b, c = m[0, 0] - m[1, 1], m[0, 1], m[1, 0]
            root = mpmath.sqrt(a_d ** 2 + 4 * b * c)
            w = min([(a_d + root) / (2 * c), (a_d - root) / (2 * c)], key=abs)
            want.append(complex((1 + zz * w) / (1 - zz * w)))
    want = np.array(want)
    # the powered product repeats one period's rounding, so u = z w may be
    # off by eps / (1 - r), 1 - r being the contraction per step near the
    # circle, and F = (1 + u) / (1 - u) moves by |1 + F|^2 / 2 times u's move
    # (measured: at most 82 eps |1 + F|^2, 19 with one pass of dim - 1 steps)
    rounding = np.finfo(float).eps * np.abs(1 + want) ** 2 / (1 - r)
    assert np.all(np.abs(got - want) <= diameter + rounding)


@pytest.mark.parametrize("q", [1, 2, 3, 5])
@pytest.mark.parametrize("r", [0.2, 0.5, 0.9, 0.99])
def test_weyl_disk_diameter_matches_mpmath_image_circles(rng, q, r):
    # the circle through the images of 1, i and -1 is the image of the unit
    # circle; windows this short leave every diameter far above rounding
    seq = C.periodic_table_seq(0.95 * rng.random(q) ** 0.5 * np.exp(2j * math.pi * rng.random(q)))
    z = r * np.exp(2j * math.pi * rng.random(3))
    for dim in (4, 8, 16):
        for k, side in ((q, "plus"), (-1, "minus")):
            _, got = W._halfline_values(seq, [(k, side)], z, dim)
            want = _mpmath_disk_diameter(seq, k, z, dim, side)
            assert np.all(np.abs(got[0] - want) <= 1e-12 * want)


@example(seq=C.periodic_table_seq([0.22 - 0.51j]), k=-1, side="minus", dim=8, r=0.9,
         turns=[0.13])
@example(seq=C.constant_seq(0.625), k=0, side="plus", dim=64, r=0.5, turns=[0.0])
@settings(max_examples=60, deadline=None)
@given(seq=sequences, k=st.integers(-5, 5), side=st.sampled_from(["plus", "minus"]),
       dim=st.sampled_from([4, 8, 16, 32, 64]), r=st.floats(0.3, 0.95),
       turns=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_values_sixteen_times_further_out_lie_in_the_weyl_disk(seq, k, side, dim, r, turns):
    # F_dim and F_{16 dim} both lie in the disk of every continuation past
    # the dim-site window's cut, so they differ by at most its diameter,
    # which Schwarz-Pick bounds a priori
    z = r * np.exp(2j * math.pi * np.array(turns))
    (got,), (diameter,) = W._halfline_values(seq, [(k, side)], z, dim)
    want = _halfline_loop(seq, k, z, 16 * dim, side)
    slack = _resolvent_bound(dim, r, want) + _resolvent_bound(16 * dim, r, want)
    assert np.all(np.abs(got - want) <= diameter + slack)
    assert np.all(diameter <= _a_priori_diameter(dim, r))


@pytest.mark.parametrize("seq", [
    FREE, C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.2),
    C.periodic_table_seq([0.9, -0.9j, 0.5 + 0.5j]),
])
def test_weyl_disk_diameter_stays_finite_far_from_the_circle(seq):
    # |det T| = 0.2^4095 over the squared scale is far below the smallest
    # double, and the rescaled entries' own determinant is rounding
    r, dim = 0.2, 4096
    z = r * np.exp(2j * math.pi * np.array([0.05, 0.71]))
    _, diameter = W._halfline_values(seq, [(3, "plus"), (-2, "minus")], z, dim)
    assert np.all(np.isfinite(diameter))
    assert np.all(diameter <= _a_priori_diameter(dim, r))


@pytest.mark.parametrize("z", [math.nan, complex(0.5, math.nan)])
def test_weyl_entry_points_refuse_nan_points(z):
    with pytest.raises(ValueError, match="below 1"):
        W.m_plus(FREE, 0, z, dim=64)
    with pytest.raises(ValueError, match="below 1"):
        W.m_minus(FREE, 0, z, dim=64)
    with pytest.raises(ValueError, match="below 1"):
        W.M_coefficients(FREE, 0, z, dim=64)
    with pytest.raises(ValueError, match="below 1"):
        W.M_coefficients(FREE, 0, np.array([0.5, z]), dim=64)


def test_batched_M_coefficients_scalar_in_scalar_out(make_periodic):
    s = make_periodic(3, radius=0.5)
    z = 0.4 * cmath.exp(0.3j)
    mp, mm = W.M_coefficients(s, 1, z, dim=128)
    assert isinstance(mp, complex) and isinstance(mm, complex)
    bp, bm = W.M_coefficients(s, 1, np.array([z, -z]), dim=128)
    assert bp[0] == mp and bm[0] == mm


def test_batched_M_coefficients_keep_per_point_checks():
    good = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 8))
    # one point too close to the circle for a 64-site window
    with pytest.raises(TruncationInstabilityError):
        W.M_coefficients(FREE, 0, np.append(good, 0.99), dim=64)
    with pytest.raises(ValueError, match="below 1"):
        W.M_coefficients(FREE, 0, np.append(good, 1.0), dim=64)
    with pytest.raises(ValueError, match="dim"):
        W.M_coefficients(FREE, 0, good, dim=2)
    with pytest.raises(ValueError, match="1-d"):
        W.M_coefficients(FREE, 0, good.reshape(2, 4), dim=64)
    with pytest.raises(WeylDenominatorError):
        W._m_minus_to_M(0.0 + 0j, np.array([1.0 + 0j, 1e-13 + 0j]), np.array([0.5, 0.5j]))


def test_batched_sign_check_names_the_side():
    from cmvlab.errors import NumericalInstabilityError

    with pytest.raises(NumericalInstabilityError, match="side minus"):
        W._check_sign(np.array([-1.0, 0.2]), "minus")
    W._check_sign(np.array([-1.0, -0.2]), "minus")
