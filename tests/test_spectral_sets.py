import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from spectral_sets_reference import CircleArcSet as RefSet

from cmvlab import coefficients as C
from cmvlab import floquet as F
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
    v = np.exp(1j * phi) * u
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
    half = np.eye(8) * 0.5
    with pytest.raises(ValueError):
        spectral_variation_check(u, half)


@pytest.mark.parametrize("shape_or_nan", ["nan", (8, 6), (12, 12)],
                         ids=["nan", "not-square", "other-shape"])
def test_spectral_variation_refuses_nan_and_mismatched_windows(make_periodic, shape_or_nan):
    # a NaN residual is not above 1e-10 and must still be refused, not left
    # to eigvals (whose LinAlgError is a ValueError too, so match the message)
    u = O.assemble_cmv(make_periodic(2), 0, 8)
    if shape_or_nan == "nan":
        v = u.copy()
        v[3, 3] = np.nan
        why = "not numerically unitary"
    else:
        v = np.eye(*shape_or_nan, dtype=complex)
        why = "square of one shape"
    with pytest.raises(ValueError, match=why):
        spectral_variation_check(u, v)
    with pytest.raises(ValueError, match=why):
        spectral_variation_check(v, u)


def test_spectral_sets_imports_only_the_standard_library_and_numpy():
    import ast
    import sys
    from pathlib import Path

    import cmvlab.spectral_sets as S

    tree = ast.parse(Path(S.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    assert roots and roots <= set(sys.stdlib_module_names) | {"numpy"}, roots


def test_point_distance_and_contains():
    s = CircleArcSet.from_arcs([(1.0, 2.0)])
    assert s.contains(1.5)
    assert not s.contains(0.0)


@pytest.mark.parametrize("make", [lambda: CircleArcSet.from_arcs([[0.5, math.nan]]),
                                  lambda: CircleArcSet.from_arcs([[math.nan, 1.0]]),
                                  lambda: CircleArcSet.from_points([math.nan, 1.0])])
def test_nan_endpoints_are_refused(make):
    with pytest.raises(ValueError, match="arc endpoints must not be NaN"):
        make()


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


# -- bitwise oracle: the per-arc loop implementation kept in tests/ ----------

TOL_GAPS = (0.0, 5e-13, 1e-12, 1.5e-12, 3e-12)  # around the 1e-12 merge tolerance
ANGLES = st.floats(-2 * TWO_PI, 3 * TWO_PI, allow_nan=False)  # unnormalised
WIDTHS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, TWO_PI + 1.0),
    st.floats(-2e-12, 2e-12).map(lambda d: TWO_PI + d),  # near-full
)
TINY = st.one_of(st.sampled_from(TOL_GAPS), st.sampled_from(TOL_GAPS).map(lambda g: -g))


@st.composite
def raw_arcs(draw):
    """Arc lists as callers pass them: empty, full or near-full, point clouds,
    wrap and degenerate arcs, chains with gaps at the merge tolerance, arcs
    that meet at the 0 / 2*pi cut, and now and then one arc out of order."""
    kind = draw(st.sampled_from(["empty", "arcs", "points", "chain", "cut", "near_full"]))
    if kind == "empty":
        return []
    if kind == "points":
        return [(a, a) for a in draw(st.lists(ANGLES, min_size=1, max_size=12))]
    if kind == "arcs":
        arcs = [(lo, lo + w) for lo, w in draw(st.lists(st.tuples(ANGLES, WIDTHS),
                                                         min_size=1, max_size=8))]
    elif kind == "chain":
        x = draw(st.one_of(ANGLES, TINY, TINY.map(lambda g: TWO_PI - g)))
        arcs = []
        for w, g in draw(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
                                            st.one_of(st.sampled_from(TOL_GAPS),
                                                      st.floats(0.0, 1.0))),
                                  min_size=1, max_size=12)):
            arcs.append((x, x + w))
            x = x + w + g
    elif kind == "cut":  # arcs ending just below 2*pi and starting just above 0
        w1, w2 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
        g1, g2 = draw(TINY), draw(TINY)
        turn = TWO_PI * draw(st.integers(-1, 1))
        arcs = [(turn + TWO_PI - w1 - g1, turn + TWO_PI - g1), (turn + g2, turn + g2 + w2)]
        arcs += draw(st.lists(st.tuples(ANGLES, st.floats(0.0, 1.0)).map(
            lambda p: (p[0], p[0] + p[1])), max_size=3))
    else:  # near_full: the circle less gaps around the merge tolerance
        lo = draw(ANGLES)
        cuts = sorted(draw(st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=4)))
        edges = [lo] + [lo + c for c in cuts] + [lo + TWO_PI]
        arcs = [(a + abs(draw(TINY)), b) for a, b in zip(edges, edges[1:])]
    if draw(st.integers(0, 9)) == 0:  # one reversed arc: refused, or shadowed by a full one
        i = draw(st.integers(0, len(arcs) - 1))
        arcs[i] = (arcs[i][1] + 0.5, arcs[i][0])
    return arcs


def bits(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


def build(cls, raw):
    try:
        return cls.from_arcs(raw), None
    except ValueError as err:
        return None, str(err)


def assert_same_set(new, ref):
    assert bits(new.arcs) == bits(ref.arcs)


def assert_same_operations(new, ref, new_t, ref_t, queries):
    """Every set operation of (new, new_t) equals the reference's bit for bit."""
    assert_same_set(new, ref)
    assert bits(new.measure()) == bits(ref.measure())
    assert bits(new.hausdorff(new_t)) == bits(ref.hausdorff(ref_t))
    assert bits(new.diff_measure(new_t)) == bits(ref.diff_measure(ref_t))
    for op in ("union", "intersection", "difference"):
        assert_same_set(getattr(new, op)(new_t), getattr(ref, op)(ref_t))
    assert_same_set(new.complement(), ref.complement())
    assert_same_set(new.preimage_double(), ref.preimage_double())
    assert json.dumps(new.to_json()) == json.dumps(ref.to_json())
    for n in (1, 7, 64):
        if ref.is_empty():
            with pytest.raises(ValueError, match="empty"):
                new.sample(n)
        else:
            assert bits(new.sample(n)) == bits(ref.sample(n))
    for th in queries:
        for tol in (0.0, 1e-12):
            assert new.contains(th, tol) == ref.contains(th, tol)


@settings(max_examples=400, deadline=None)
@given(raw_s=raw_arcs(), raw_t=raw_arcs(), extra=st.lists(ANGLES, max_size=6))
@example(raw_s=[(1.0, 2.0), (2.0 + 1.5e-12, 3.0)], raw_t=[(0.0, 1.0), (5.5, TWO_PI)], extra=[])
@example(raw_s=[(-1e-20, -1e-20), (0.5, 0.5)], raw_t=[(2.0, 1.0)], extra=[-1e-20])
def test_every_operation_equals_the_loop_reference_bit_for_bit(raw_s, raw_t, extra):
    new, err = build(CircleArcSet, raw_s)
    ref, ref_err = build(RefSet, raw_s)
    assert err == ref_err
    new_t, err_t = build(CircleArcSet, raw_t)
    ref_t, ref_err_t = build(RefSet, raw_t)
    assert err_t == ref_err_t
    if err is not None or err_t is not None:
        return
    # endpoints and their neighbours one ulp and one tolerance away
    ends = np.concatenate([new.arcs.ravel(), new_t.arcs.ravel(), extra])
    queries = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                              ends - 1e-12, ends + 1e-12])
    assert_same_operations(new, ref, new_t, ref_t, queries)
    assert_same_operations(new_t, ref_t, new, ref, [])


def test_many_arc_spectra_equal_the_loop_reference_bit_for_bit():
    rng = np.random.default_rng(128)
    table = 0.5 * rng.random(256) * np.exp(2j * math.pi * rng.random(256))
    seq = C.periodic_table_seq(table)
    s128 = F.periodic_spectrum(C.periodize(seq, 128), 128)
    s256 = F.periodic_spectrum(seq, 256)
    assert len(s128.arcs) > 100 and len(s256.arcs) > 200
    ref128, ref256 = RefSet(s128.arcs), RefSet(s256.arcs)
    assert_same_set(s128, ref128)
    assert_same_set(s256, ref256)
    for a, b, ra, rb in ((s128, s256, ref128, ref256), (s256, s128, ref256, ref128)):
        assert bits(a.hausdorff(b)) == bits(ra.hausdorff(rb))
        assert bits(a.diff_measure(b)) == bits(ra.diff_measure(rb))
        assert_same_set(a.intersection(b), ra.intersection(rb))
