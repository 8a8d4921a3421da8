"""The z-batched transfer kernel against explicit per-point products.

Oracles: ordered products of the scalar ``szego`` / ``gz_step`` matrices at
one point at a time, numpy eigenvalues of those products, and mpmath
products at 40 digits.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import floquet as F
from cmvlab import operator as O
from cmvlab import transfer as T
from cmvlab.errors import NumericalInstabilityError
from cmvlab.spectral_sets import TWO_PI

SCALE_EVERY = 16

disk = st.builds(
    lambda r, t: r * cmath.exp(2j * math.pi * t),
    st.floats(0.0, 0.8), st.floats(0.0, 1.0),
)
tables = st.lists(disk, min_size=1, max_size=8).map(C.periodic_table_seq)
quasiperiodic = st.builds(
    C.quasiperiodic_seq, st.floats(0.0, 0.8), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
# grid sizes 1 and odd; the angles need not be sorted
grids = st.sampled_from([1, 3, 5, 7]).flatmap(
    lambda g: st.lists(st.floats(0.0, TWO_PI), min_size=g, max_size=g)
).map(lambda th: np.exp(1j * np.array(th)))
# step counts that are a multiple of neither the block size nor SCALE_EVERY
n_steps = st.integers(1, 2 * T._BLOCK + 40).filter(
    lambda n: n % T._BLOCK and n % SCALE_EVERY
)


def birkhoff_oracle(seq, z, n, scale_every=SCALE_EVERY):
    m = np.eye(2, dtype=complex)
    log_scale = 0.0
    for j in range(n):
        m = T.szego(seq(j), z) @ m
        if (j + 1) % scale_every == 0:
            s = np.max(np.abs(m))
            m, log_scale = m / s, log_scale + math.log(s)
    return (log_scale + math.log(np.linalg.norm(m, 2))) / n


def monodromy_oracle(seq, q, z):
    m = np.eye(2, dtype=complex)
    for j in range(q):
        m = T.gz_step(seq, j, z) @ m
    return m


@settings(max_examples=20, deadline=None)
@given(seq=quasiperiodic, zs=grids, n=n_steps)
@example(seq=C.quasiperiodic_seq(0.7, 0.3, 0.9), zs=np.exp(1j * np.array([0.5, 2.0, 4.4])),
         n=T._BLOCK + 37)
@example(seq=C.quasiperiodic_seq(0.3, 0.6, 0.2), zs=np.array([-1.0 + 0j]),
         n=2 * T._BLOCK + 5)
def test_birkhoff_lyapunov_matches_per_point_products(seq, zs, n):
    got = T.lyapunov(seq, zs, n_steps=n, scale_every=SCALE_EVERY)
    assert isinstance(got, np.ndarray) and got.shape == zs.shape
    want = [birkhoff_oracle(seq, z, n) for z in zs]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seq=tables, zs=grids)
# a rate far below machine epsilon relative to the trace: tr^2 - 4 det cancels
@example(seq=C.periodic_table_seq([1e-9 + 0j]), zs=np.array([1.0 + 0j]))
def test_periodic_lyapunov_matches_monodromy_eigenvalues(seq, zs):
    q = seq.period * (2 if seq.period % 2 else 1)
    got = T.lyapunov(seq, zs)
    want = [
        math.log(max(np.max(np.abs(np.linalg.eigvals(monodromy_oracle(seq, q, z)))), 1.0)) / q
        for z in zs
    ]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seq=tables, zs=grids, half=st.integers(1, 4))
def test_monodromy_and_discriminant_match_per_point_products(seq, zs, half):
    q = 2 * half * seq.period
    got = T.monodromy(seq, q, zs)
    assert got.shape == zs.shape + (2, 2)
    want = np.array([monodromy_oracle(seq, q, z) for z in zs])
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    disc = F.discriminant(seq, q, np.angle(zs))
    np.testing.assert_allclose(disc, np.trace(want, axis1=1, axis2=2).real,
                               rtol=0, atol=1e-12 * scale)


def test_birkhoff_lyapunov_matches_mpmath():
    seq = C.quasiperiodic_seq(0.6, (math.sqrt(5.0) - 1.0) / 2.0, 0.3)
    thetas = np.array([0.2, 1.7, 4.0])
    n = 700
    got = T.lyapunov(seq, np.exp(1j * thetas), n_steps=n)
    with mpmath.workdps(40):
        for th, val in zip(thetas, got):
            z = mpmath.expj(th)
            m = mpmath.eye(2)
            for j in range(n):
                a = mpmath.mpc(seq(j))
                rho = mpmath.sqrt(1 - abs(a) ** 2)
                m = mpmath.matrix([[z, -mpmath.conj(a)], [-z * a, 1]]) / rho * m
            sv = mpmath.svd_c(m, compute_uv=False)
            want = mpmath.log(max(sv[0], sv[1])) / n
            assert abs(val - float(want)) < 1e-12


def test_scalar_points_give_floats_and_scalar_shapes(make_periodic):
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.1)
    s = make_periodic(4)
    zs = np.exp(1j * np.array([0.3, 2.5]))
    for seq in (qp, s):
        scalar = T.lyapunov(seq, complex(zs[1]), n_steps=2000)
        assert type(scalar) is float
        assert scalar == pytest.approx(T.lyapunov(seq, zs, n_steps=2000)[1], abs=1e-14)
    assert T.monodromy(s, 4, zs[0]).shape == (2, 2)
    d = F.discriminant(s, 4, 0.3)
    assert type(d) is float
    assert d == pytest.approx(F.discriminant(s, 4, np.array([0.3, 2.5]))[0], abs=1e-14)


def test_batched_checks_reject_any_bad_point():
    raw = C.CoefficientSequence(fn=lambda n: 0.2 + 0j, sup_norm_bound=0.2)
    good = np.exp(1j * np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=r"\|z\|"):
        T.lyapunov(raw, np.append(good, 0.5))
    with pytest.raises(ValueError, match="nonzero"):
        T.monodromy(C.constant_seq(0.2), 2, np.append(good, 0.0))
    with pytest.raises(ValueError, match="1-d"):
        T.lyapunov(raw, good.reshape(3, 1))
    outside = C.CoefficientSequence(fn=lambda n: 1.5 if n == 7 else 0.0,
                                    sup_norm_bound=0.5)
    with pytest.raises(ValueError, match=r"\|alpha\|"):
        T.lyapunov(outside, good, n_steps=100)
    with pytest.raises(ValueError):
        T.lyapunov(raw, good, n_steps=0)
    with pytest.raises(ValueError):
        T.lyapunov(raw, good, scale_every=0)


def test_batched_discriminant_flags_complex_trace(monkeypatch):
    def fake(seq, q, z):
        return np.broadcast_to(np.diag([1.0 + 1e-6j, 1.0]), np.shape(z) + (2, 2))

    monkeypatch.setattr(F, "monodromy", fake)
    for theta in (np.linspace(0.0, 1.0, 5), 0.5):
        with pytest.raises(NumericalInstabilityError, match="imaginary part 1.00e-06"):
            F.discriminant(C.constant_seq(0.2), 2, theta)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(disk, min_size=1, max_size=3), half=st.integers(1, 3))
def test_band_edges_are_floquet_eigenvalues(values, half):
    seq = C.periodic_table_seq(values)
    q = 2 * half * seq.period
    arcs = F.periodic_spectrum(seq, q)
    if arcs.is_full() or arcs.is_empty():
        return
    # Delta = +-2 exactly at the eigenvalues of E_q(0) and E_q(pi/q)
    eig = np.concatenate([np.linalg.eigvals(F.floquet_operator(seq, q, k))
                          for k in (0.0, math.pi / q)])
    for edge in arcs.arcs.ravel():
        assert np.min(np.abs(eig - cmath.exp(1j * edge))) < 1e-7
        assert abs(abs(F.discriminant(seq, q, edge)) - 2.0) < 1e-6


def _scalar_only(n):
    return 0.3 * cmath.exp(0.7j * n * n)


_PT = C.pastur_tkachenko_family(0.2, lambda n: 0.05 / (n + 1), 2, 2)
SEQUENCES = {
    "constant": C.constant_seq(0.4 - 0.2j),
    "quasiperiodic": C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25),
    "periodic_table": C.periodic_table_seq([0.1, 0.2j, -0.3, 0.4 + 0.1j, 0.0]),
    "periodize": C.periodize(C.quasiperiodic_seq(0.6, 0.1, 0.0), 6),
    "pt_stage_1": _PT.stages[1],
    "pt_stage_2": _PT.stages[2],
    "sieve_periodic": O.sieve(C.periodic_table_seq([0.3, -0.2j])),
    "sieve_quasiperiodic": O.sieve(C.quasiperiodic_seq(0.4, 0.2, 0.1)),
    "shift_quasiperiodic": O.shift_seq(C.quasiperiodic_seq(0.4, 0.2, 0.1), -7),
    "raw_fn": C.CoefficientSequence(fn=_scalar_only, sup_norm_bound=0.3),
    "sieve_raw_fn": O.sieve(C.CoefficientSequence(fn=_scalar_only, sup_norm_bound=0.3)),
    "shift_sieve_raw_fn": O.shift_seq(
        O.sieve(C.CoefficientSequence(fn=_scalar_only, sup_norm_bound=0.3)), 3),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
@settings(max_examples=25, deadline=None)
@given(lo=st.integers(-3000, 3000), length=st.integers(0, 300))
def test_window_equals_pointwise_values(name, lo, length):
    seq = SEQUENCES[name]
    # every constructor but a raw scalar fn reads its window in one array call
    assert (seq.fn_array is None) == (name == "raw_fn")
    got = seq.window(lo, lo + length)
    assert got.dtype == complex and got.shape == (length,)
    np.testing.assert_array_equal(got, [seq(n) for n in range(lo, lo + length)])


def test_grids_wider_than_one_kernel_pass(make_periodic):
    s = make_periodic(4)
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25)
    zs = np.exp(1j * np.linspace(0.0, TWO_PI, 2 * T._POINTS + 3, endpoint=False))
    mono = T.monodromy(s, 4, zs)
    lyap = T.lyapunov(qp, zs, n_steps=40)
    for i in (0, T._POINTS - 1, T._POINTS, 2 * T._POINTS + 2):
        np.testing.assert_allclose(mono[i], monodromy_oracle(s, 4, zs[i]), rtol=0, atol=1e-12)
        assert abs(lyap[i] - birkhoff_oracle(qp, zs[i], 40)) < 1e-12
