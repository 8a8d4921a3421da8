import math

import numpy as np
import pytest

from cmvlab import coefficients as C
from cmvlab import operator as O
from cmvlab.spectral_sets import TWO_PI, CircleArcSet, spectral_variation_check


def random_arcset(rng, max_arcs=4):
    n = int(rng.integers(1, max_arcs + 1))
    arcs = []
    for _ in range(n):
        lo = rng.random() * TWO_PI
        width = rng.random() * 1.2
        arcs.append((lo, lo + width))
    return CircleArcSet.from_arcs(arcs)


def test_canonical_merges_and_sorts():
    s = CircleArcSet.from_arcs([(3.0, 4.0), (0.5, 1.0), (0.9, 2.0)])
    np.testing.assert_allclose(s.arcs, [[0.5, 2.0], [3.0, 4.0]])
    # idempotent and order-insensitive
    np.testing.assert_allclose(CircleArcSet(s.arcs).arcs, s.arcs, atol=0)
    t = CircleArcSet.from_arcs([(0.9, 2.0), (3.0, 4.0), (0.5, 1.0)])
    np.testing.assert_allclose(t.arcs, s.arcs, atol=0)


def test_canonical_wrap_join():
    s = CircleArcSet.from_arcs([(0.0, 1.0), (5.5, TWO_PI)])
    assert s.arcs.shape == (1, 2)
    assert s.arcs[0][0] == pytest.approx(5.5)
    assert s.arcs[0][1] == pytest.approx(TWO_PI + 1.0)
    assert s.measure() == pytest.approx(1.0 + (TWO_PI - 5.5))


def test_full_circle_representation():
    s = CircleArcSet.from_arcs([(0.0, 4.0), (3.5, TWO_PI + 0.2)])
    assert s.is_full()
    np.testing.assert_allclose(s.arcs, [[0.0, TWO_PI]])


def test_measure_examples():
    assert CircleArcSet.full_circle().measure() == pytest.approx(TWO_PI)
    assert CircleArcSet.empty().measure() == 0.0
    two = CircleArcSet.from_arcs([(0.0, 1.0), (2.0, 3.0)])
    assert two.measure() == pytest.approx(2.0)


def test_measure_monotone_and_additive(rng):
    for _ in range(50):
        s = random_arcset(rng)
        t = random_arcset(rng)
        u = s.union(t)
        assert u.measure() >= max(s.measure(), t.measure()) - 1e-12
        inter = s.intersection(t)
        assert (
            abs(s.measure() + t.measure() - u.measure() - inter.measure()) < 1e-10
        )


def test_hausdorff_identity_and_empty(rng):
    s = random_arcset(rng)
    assert s.hausdorff(s) == 0.0
    assert math.isinf(s.hausdorff(CircleArcSet.empty()))
    assert math.isinf(CircleArcSet.empty().hausdorff(s))


def test_hausdorff_to_itself_is_zero_across_a_narrow_gap():
    # the midpoint of a gap narrower than twice the merge tolerance is not
    # covered by the set itself
    s = CircleArcSet.from_arcs([(1.0, 2.0), (2.0 + 1.5e-12, 3.0)])
    assert s.arcs.shape == (2, 2)
    assert s.hausdorff(s) == 0.0


def test_hausdorff_rotation_example():
    s = CircleArcSet.from_arcs([(0.0, math.pi / 2)])
    t = CircleArcSet.from_arcs([(0.1, math.pi / 2 + 0.1)])
    assert s.hausdorff(t) == pytest.approx(2.0 * math.sin(0.05), abs=1e-12)


def test_hausdorff_full_vs_half():
    full = CircleArcSet.full_circle()
    half = CircleArcSet.from_arcs([(0.0, math.pi)])
    assert full.hausdorff(half) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_hausdorff_triangle_inequality(rng):
    for _ in range(1000):
        a, b, c = (random_arcset(rng, 3) for _ in range(3))
        ab, bc, ac = a.hausdorff(b), b.hausdorff(c), a.hausdorff(c)
        assert ac <= ab + bc + 1e-12


def test_diff_measure_examples():
    s = CircleArcSet.from_arcs([(0.2, 1.7)])
    assert s.diff_measure(s) == 0.0
    full = CircleArcSet.full_circle()
    half = CircleArcSet.from_arcs([(0.0, math.pi)])
    assert full.diff_measure(half) == pytest.approx(math.pi, abs=1e-12)


def test_diff_measure_neighborhood_bound(rng):
    for _ in range(50):
        t = random_arcset(rng)
        eps = 0.05 + 0.3 * rng.random()
        delta = 2.0 * math.asin(eps / 2.0)
        grown = CircleArcSet.from_arcs([(lo - delta, hi + delta) for lo, hi in t.arcs])
        bound = 2.0 * len(t.arcs) * delta
        assert grown.diff_measure(t) <= bound + 1e-10


def test_preimage_double_examples():
    assert CircleArcSet.full_circle().preimage_double().is_full()

    s = CircleArcSet.from_arcs([(0.0, math.pi)])
    pre = s.preimage_double()
    np.testing.assert_allclose(
        pre.arcs, [[0.0, math.pi / 2], [math.pi, 3 * math.pi / 2]], atol=1e-15
    )
    assert pre.measure() == pytest.approx(math.pi, abs=1e-14)

    twice = CircleArcSet.from_arcs([(0.0, 0.4)]).preimage_double().preimage_double()
    assert twice.arcs.shape == (4, 2)
    assert twice.measure() == pytest.approx(0.4, abs=1e-13)


def test_preimage_double_preserves_measure(rng):
    for _ in range(50):
        s = random_arcset(rng)
        assert abs(s.preimage_double().measure() - s.measure()) < 1e-12


def test_spectral_variation_identity(make_periodic):
    u = O.assemble_cmv(make_periodic(2), 0, 16)
    out = spectral_variation_check(u, u)
    assert out["dH"] == 0.0 and out["holds"]


def test_spectral_variation_phase_rotation(make_periodic):
    u = O.assemble_cmv(make_periodic(3, radius=0.5), 0, 12)
    phi = 0.2
    v = O.BandedUnitary(0, np.exp(1j * phi) * u.entries)
    out = spectral_variation_check(u, v)
    assert out["holds"]
    assert out["norm"] == pytest.approx(abs(np.exp(1j * phi) - 1.0), abs=1e-12)
    assert out["dH"] <= out["norm"] + 1e-12


def test_spectral_variation_random_pairs(make_periodic):
    for _ in range(20):
        u = O.assemble_cmv(make_periodic(2, radius=0.7), 0, 32)
        v = O.assemble_cmv(make_periodic(4, radius=0.7), 0, 32)
        assert spectral_variation_check(u, v)["holds"]


def test_spectral_variation_validations(make_periodic):
    u = O.assemble_cmv(make_periodic(2), 0, 8)
    v = O.assemble_cmv(make_periodic(2), 0, 12)
    with pytest.raises(ValueError):
        spectral_variation_check(u, v)
    half = O.BandedUnitary(0, np.eye(8) * 0.5)
    with pytest.raises(ValueError):
        spectral_variation_check(u, half)


def test_point_distance_and_contains():
    s = CircleArcSet.from_arcs([(1.0, 2.0)])
    assert s.contains(1.5)
    assert not s.contains(0.0)


def test_json_round_trip(rng):
    s = random_arcset(rng)
    back = CircleArcSet.from_arcs(s.to_json()["arcs"])
    np.testing.assert_allclose(back.arcs, s.arcs, atol=0)


def test_set_algebra_matches_pointwise_membership(rng):
    for _ in range(40):
        s = random_arcset(rng)
        t = random_arcset(rng)
        union = s.union(t)
        inter = s.intersection(t)
        diff = s.difference(t)
        comp = s.complement()
        endpoints = np.concatenate([s.arcs.ravel(), t.arcs.ravel()])
        for _ in range(100):
            th = rng.random() * TWO_PI
            # endpoint-adjacent angles are ambiguous for closed arcs
            gap = np.abs(((th - endpoints) + math.pi) % TWO_PI - math.pi)
            if gap.min() < 1e-7:
                continue
            in_s, in_t = s.contains(th), t.contains(th)
            assert union.contains(th) == (in_s or in_t)
            assert inter.contains(th) == (in_s and in_t)
            assert diff.contains(th) == (in_s and not in_t)
            assert comp.contains(th) == (not in_s)


def test_hausdorff_matches_dense_sampling(rng):
    ths = np.linspace(0.0, TWO_PI, 4001)
    for _ in range(10):
        s = random_arcset(rng, 3)
        t = random_arcset(rng, 3)
        samp_s = np.exp(1j * np.array([x for x in ths if s.contains(x, tol=0)]))
        samp_t = np.exp(1j * np.array([x for x in ths if t.contains(x, tol=0)]))
        d_st = np.min(np.abs(samp_t[None, :] - samp_s[:, None]), axis=1).max()
        d_ts = np.min(np.abs(samp_s[None, :] - samp_t[:, None]), axis=1).max()
        brute = max(d_st, d_ts)
        assert abs(s.hausdorff(t) - brute) < 2 * TWO_PI / 4000


def test_sample_spreads_proportionally():
    s = CircleArcSet.from_arcs([(0.0, 1.0), (3.0, 4.0)])
    angles = s.sample(32)
    assert len(angles) == 32
    first = sum(1 for a in angles if a <= 1.0)
    assert first == 16
    assert all(s.contains(a, tol=1e-12) for a in angles)
    with pytest.raises(ValueError):
        CircleArcSet.empty().sample(4)
