import cmath
import math

import numpy as np
import pytest

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
