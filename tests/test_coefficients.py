import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import floquet


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def geo_decay(base_amp, q0):
    return lambda n: base_amp * 4.0 ** (-(q0 * 2 ** (n + 1)))


def test_constant_values():
    free = C.constant_seq(0.0)
    assert free(17) == 0 and free.period == 1

    half = C.constant_seq(0.5)
    assert all(half(n) == 0.5 for n in (-3, 0, 9))

    zc = C.constant_seq(0.3 + 0.4j)
    assert zc(2) == 0.3 + 0.4j


@pytest.mark.parametrize("bad", [1.0, -1.0, 0.8 + 0.8j, 2.0])
def test_constant_rejects_outside_disk(bad):
    with pytest.raises(ValueError):
        C.constant_seq(bad)


@pytest.mark.parametrize("make", [lambda: C.constant_seq(math.nan),
                                  lambda: C.periodic_table_seq([0.1, math.nan])])
def test_nan_coefficients_are_refused_by_the_disk_check(make):
    with pytest.raises(ValueError, match=r"^\|alpha\| must be < 1, got nan$"):
        make()


def test_quasiperiodic_values():
    assert C.quasiperiodic_seq(0.0, GOLDEN, 0.3)(5) == 0

    s = C.quasiperiodic_seq(0.5, GOLDEN, 0.0)
    assert s(0) == pytest.approx(0.5)
    expected = 0.5 * cmath.exp(2j * math.pi * GOLDEN)
    assert s(1) == pytest.approx(expected, abs=1e-15)
    assert abs(s(1)) == pytest.approx(0.5, abs=1e-15)
    assert s.period is None


def test_quasiperiodic_rejects_amplitude():
    with pytest.raises(ValueError):
        C.quasiperiodic_seq(1.0, GOLDEN, 0.0)


def test_periodize_forced_values():
    s = C.quasiperiodic_seq(0.5, GOLDEN, 0.1)
    p2 = C.periodize(s, 2)
    assert p2(-2) == pytest.approx(s(0), abs=1e-15)
    assert p2.period == 2

    p3 = C.periodize(s, 3)
    assert p3(5) == pytest.approx(s(2), abs=1e-15)

    pc = C.periodize(C.constant_seq(0.5), 4)
    assert all(pc(j) == 0.5 for j in range(-4, 9))


def test_periodize_idempotent():
    s = C.quasiperiodic_seq(0.4, GOLDEN, 0.0)
    once = C.periodize(s, 3)
    twice = C.periodize(once, 3)
    for n in range(-10, 11):
        assert twice(n) == once(n)


def test_wide_windows_lie_in_the_open_disk():
    seqs = [
        C.constant_seq(0.3 + 0.4j),
        C.quasiperiodic_seq(0.7, GOLDEN, 0.2),
        C.periodize(C.quasiperiodic_seq(0.5, GOLDEN, 0.0), 6),
        C.pastur_tkachenko_family(0.1, decay=geo_decay(0.1, 2)).limit,
    ]
    for s in seqs:
        vals = s.window(-5000, 5000)
        assert np.max(np.abs(vals)) < 1.0


def test_pt_levels_zero_single_stage():
    fam = C.pastur_tkachenko_family(0.2, levels=0)
    assert len(fam.stages) == 1
    assert fam.limit is fam.stages[0]


def test_pt_zero_base_amp_stages_equal():
    fam = C.pastur_tkachenko_family(0.0, levels=3)
    for s in fam.stages:
        for j in range(-8, 9):
            assert s(j) == 0


def test_pt_geometric_increments():
    # consecutive-stage sup differences equal the decay amplitudes exactly
    fam = C.pastur_tkachenko_family(0.1, decay=geo_decay(0.1, 2), q0=2, levels=3)
    expected = [0.1 * 4.0 ** -4, 0.1 * 4.0 ** -8, 0.1 * 4.0 ** -16]
    for n, amp in enumerate(expected):
        qn1 = fam.periods()[n + 1]
        sup = max(
            abs(fam.stages[n + 1](j) - fam.stages[n](j)) for j in range(-qn1, qn1 + 1)
        )
        assert sup == pytest.approx(amp, rel=1e-12)


def test_pt_eta_criterion_default_family():
    fam = C.pastur_tkachenko_family(0.1, q0=2, levels=3)
    qs = fam.periods()
    for eta in (0.5, 1.0, 2.0):
        vals = []
        for n in range(len(fam.stages) - 1):
            w = qs[n + 1]
            dev = max(abs(fam.stages[n](j) - fam.limit(j)) for j in range(-w, w + 1))
            vals.append(math.exp(eta * w) * dev)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6


def test_pt_long_period_stages_equal_the_scalar_sum_bit_for_bit():
    # periods 49 152 .. 196 608, past 2^15; base 0 so each cos bit shows
    amps, q0 = [0.3, 0.15], 3 * 2 ** 14
    fam = C.pastur_tkachenko_family(0.0, decay=lambda n: amps[n], q0=q0, levels=2)
    periods = fam.periods()
    for n, stage in enumerate(fam.stages):
        vals = []
        for j in range(periods[n]):
            v = 0.0
            for m in range(n):
                v += amps[m] * math.cos(2.0 * math.pi * j / periods[m + 1])
            vals.append(v)
        got = stage.window(0, periods[n])
        assert np.array_equal(got.real.view(np.int64), np.array(vals).view(np.int64))
        assert not got.imag.any()


def test_sequence_map_of_the_wrong_shape_is_refused():
    seq = C.CoefficientSequence(fn=lambda n: 0.2 + 0j)
    with pytest.raises(ValueError, match=r"sequence map must return shape \(5,\), got \(\)"):
        seq.window(0, 5)


def test_pt_rejects_bad_parameters():
    with pytest.raises(ValueError):
        C.pastur_tkachenko_family(0.1, q0=3)
    with pytest.raises(ValueError):
        C.pastur_tkachenko_family(1.0)
    with pytest.raises(ValueError):
        C.pastur_tkachenko_family(0.9, decay=lambda n: 0.2, levels=2)


def _no_amplitude(n):
    raise AssertionError("no amplitude may be computed")


@pytest.mark.parametrize("q0, levels, form", [
    (2, 1100, "gaussian"), (2, 1100, "geometric"), (2, 1023, "geometric"),
    (2, 62, "unread"), (4, 61, "unread"), (2, 511, "unread"),
])
def test_pt_refuses_a_largest_period_beyond_int64_before_any_amplitude(q0, levels, form):
    # without the bound, the gaussian decay overflows a float from levels
    # 511 (q0 = 2) and the geometric one from 1023, as OverflowError; the
    # cases just past 2**62 use a decay that must not be read, since a
    # family that reads it builds tables of up to q0 * 2**levels sites
    decay = {"gaussian": None, "geometric": geo_decay(0.1, q0), "unread": _no_amplitude}[form]
    with pytest.raises(ValueError, match=r"q0 \* 2\*\*levels must be at most 2\*\*62"):
        C.pastur_tkachenko_family(0.1, decay=decay, q0=q0, levels=levels)


def test_family_requires_dividing_periods():
    s2 = C.periodize(C.constant_seq(0.1), 2)
    s3 = C.periodize(C.constant_seq(0.1), 3)
    with pytest.raises(ValueError):
        C.LimitPeriodicFamily(stages=(s2, s3))


def test_lp_sum_empty_and_single_stage():
    fam = C.pastur_tkachenko_family(0.3, levels=0)
    out = C.lp_sum_criterion(fam, 0, 1.0)
    assert out["lhs"] == 0.0 and out["holds"]

    fam0 = C.pastur_tkachenko_family(0.0, levels=2)
    out = C.lp_sum_criterion(fam0, 0, 0.5)
    assert out["lhs"] == 0.0 and out["holds"]


def test_lp_sum_example_family_holds():
    fam = C.pastur_tkachenko_family(0.1, decay=geo_decay(0.1, 2), q0=2, levels=3)
    sigma0 = floquet.periodic_spectrum(fam.stages[0], 2).measure()
    out = C.lp_sum_criterion(fam, 0, sigma0)
    assert out["holds"]
    assert 0.0 < out["lhs"] < out["rhs"]


def test_lp_sum_lhs_nonincreasing_in_k():
    fam = C.pastur_tkachenko_family(0.1, decay=geo_decay(0.1, 2), q0=2, levels=3)
    lhs = [C.lp_sum_criterion(fam, k, 1.0)["lhs"] for k in range(len(fam.stages))]
    assert all(a >= b for a, b in zip(lhs, lhs[1:]))


EPS = np.finfo(float).eps


@settings(max_examples=400, deadline=None)
@given(r=st.floats(0.0, 1.0 - 1e-12), t=st.floats(0.0, 1.0))
@example(r=1.0 - 1e-12, t=0.125)  # the largest drawn modulus
@example(r=0.0, t=0.0)
def test_rho_agrees_with_mpmath(r, t):
    # an independent oracle: 1 - |a|^2 rounds to within about eps |a|^2 of
    # its exact value, so rho's relative error grows like eps / (1 - |a|^2)
    a = complex(r * np.exp(2j * np.pi * t))
    with mpmath.workdps(50):
        s = 1 - (mpmath.mpf(a.real) ** 2 + mpmath.mpf(a.imag) ** 2)
        want = mpmath.sqrt(s)
        for got in (C._rho(a), C._rho(np.array([a, a]))[1]):
            assert abs(mpmath.mpf(float(got)) - want) <= 2 * EPS * want / s


@settings(max_examples=400, deadline=None)
@given(log_m=st.floats(-150.0, 0.0), t=st.floats(0.0, 1.0))
@example(log_m=-150.0, t=0.25)  # the smallest amplitude, on an axis
def test_abs2_agrees_with_mpmath(log_m, t):
    # walk amplitudes reach 1e-150 and below: the larger of |re| and |im|
    # keeps its square normal there, so the relative error stays a few ulp
    c = complex(10.0 ** log_m * np.exp(2j * np.pi * t))
    with mpmath.workdps(50):
        want = mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2
        for got in (C._abs2(c), C._abs2(np.array([c, c]))[0]):
            assert abs(mpmath.mpf(float(got)) - want) <= 2 * EPS * want
