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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmvlab import coefficients as C
from cmvlab import errors as E
from cmvlab import floquet as F
from cmvlab import operator as O
from cmvlab import transfer as T
from cmvlab.errors import NumericalInstabilityError, certificates
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
    got = T.lyapunov(seq, zs, n_steps=n)
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
@given(seq=tables, zs=grids, half=st.integers(1, 4), data=st.data())
def test_monodromy_and_discriminant_match_per_point_products(seq, zs, half, data):
    q = 2 * half * seq.period
    got = T.monodromy(seq, q, zs)
    assert got.shape == zs.shape + (2, 2)
    want = np.array([monodromy_oracle(seq, q, z) for z in zs])
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    disc = F.discriminant(seq, q, np.angle(zs))
    np.testing.assert_allclose(disc, np.trace(want, axis1=1, axis2=2).real,
                               rtol=0, atol=1e-12 * scale)
    # off the circle |z|^{-q/2} goes into the log scale; each point to its own largest entry
    radii = data.draw(st.lists(st.floats(0.5, 1.5), min_size=zs.size, max_size=zs.size))
    off = zs * np.array(radii)
    want = np.array([monodromy_oracle(seq, q, z) for z in off])
    err = np.abs(T.monodromy(seq, q, off) - want).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want).max(axis=(1, 2))))


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


def test_periodic_lyapunov_past_monodromy_overflow_matches_mpmath():
    # q = 2048 sites at radius 0.9: the monodromy's entries grow like e^{qL}
    # past the float range, and its squares past it long before
    rng = np.random.default_rng(1)
    q = 2048
    seq = C.periodic_table_seq(0.9 * rng.random(q) * np.exp(TWO_PI * 1j * rng.random(q)))
    thetas = np.array([0.3, 2.5, 5.1])
    got = T.lyapunov(seq, np.exp(1j * thetas))
    with mpmath.workdps(50):
        for th, val in zip(thetas, got):
            z = mpmath.expj(th)
            m = mpmath.eye(2)
            for n in range(q):
                a = mpmath.mpc(seq(n))
                if n % 2 == 0:
                    y = mpmath.matrix([[-a, 1], [1, -mpmath.conj(a)]])
                else:
                    y = mpmath.matrix([[-mpmath.conj(a), z], [1 / z, -a]])
                m = y / mpmath.sqrt(1 - abs(a) ** 2) * m
            half_tr = (m[0, 0] + m[1, 1]) / 2
            disc = mpmath.sqrt(half_tr ** 2 - mpmath.det(m))
            rad = max(abs(half_tr + disc), abs(half_tr - disc))
            want = float(mpmath.log(rad) / q)
            assert want > 0.1
            assert abs(val - want) < 1e-12


def _radius_09_table(q):
    rng = np.random.default_rng(1)
    return C.periodic_table_seq(0.9 * rng.random(q) * np.exp(TWO_PI * 1j * rng.random(q)))


def test_long_monodromy_traces_match_mpmath():
    # entries near 1e176: the rescaled product times its scale, to 1e-12 relative
    q = 2048
    seq = _radius_09_table(q)
    thetas = np.array([0.3, 2.5, 5.1])
    got = F.discriminant(seq, q, thetas)
    with mpmath.workdps(50):
        for th, val in zip(thetas, got):
            z = mpmath.expj(th)
            m = mpmath.eye(2)
            for n in range(q):
                a = mpmath.mpc(seq(n))
                if n % 2 == 0:
                    y = mpmath.matrix([[-a, 1], [1, -mpmath.conj(a)]])
                else:
                    y = mpmath.matrix([[-mpmath.conj(a), z], [1 / z, -a]])
                m = y / mpmath.sqrt(1 - abs(a) ** 2) * m
            want = float(mpmath.re(m[0, 0] + m[1, 1]))
            assert abs(want) > 1e150
            assert abs(val - want) < 1e-12 * abs(want)


def test_monodromies_off_the_circle_match_mpmath():
    # |z|^{-q/2} reaches 2^256 at |z| = 0.5: the modulus goes into the log scale
    rng = np.random.default_rng(5)
    q = 512
    seq = C.periodic_table_seq(0.5 * rng.random(q) * np.exp(TWO_PI * 1j * rng.random(q)))
    zs = np.array([0.5, 0.9, 1.1]) * np.exp(1j * np.array([0.3, 2.5, 5.1]))
    got = T.monodromy(seq, q, zs)
    with mpmath.workdps(50):
        for z0, val in zip(zs, got):
            z = mpmath.mpc(z0)
            m = mpmath.eye(2)
            for n in range(q):
                a = mpmath.mpc(seq(n))
                if n % 2 == 0:
                    y = mpmath.matrix([[-a, 1], [1, -mpmath.conj(a)]])
                else:
                    y = mpmath.matrix([[-mpmath.conj(a), z], [1 / z, -a]])
                m = y / mpmath.sqrt(1 - abs(a) ** 2) * m
            want = np.array(m.tolist(), dtype=complex)
            assert np.max(np.abs(val - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("theta", [0.3, 2.5])
def test_monodromies_past_the_float_range_raise(theta):
    seq = _radius_09_table(4096)
    with pytest.raises(NumericalInstabilityError, match="not finite"):
        T.monodromy(seq, 4096, cmath.exp(1j * theta))
    with pytest.raises(NumericalInstabilityError):
        F.discriminant(seq, 4096, theta)
    with pytest.raises(NumericalInstabilityError):
        F.discriminant(seq, 4096, np.array([0.1, theta]))


def test_nan_points_are_refused_before_any_product():
    z = np.array([1.0 + 0j, complex(math.nan, 0.0)])
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25)
    for seq in (qp, C.periodic_table_seq([0.3, 0.5j])):
        with pytest.raises(ValueError, match=r"\|z\|"):
            T.lyapunov(seq, z, n_steps=100)
    with pytest.raises(ValueError, match="finite"):
        T.monodromy(C.constant_seq(0.2), 2, z)
    with pytest.raises(ValueError, match="finite"):
        T.monodromy(C.constant_seq(0.2), 2, complex(math.inf, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_lyapunov_exponents_raise(monkeypatch, bad):
    seq = C.periodic_table_seq([0.3, 0.5j])
    monkeypatch.setattr(T, "_spectral_radius_2x2", lambda m: np.full(m.shape[:-2], bad))
    with pytest.raises(NumericalInstabilityError, match="Lyapunov exponent"):
        T.lyapunov(seq, np.exp(1j * np.array([0.1, 0.2])))


def test_scalar_points_give_floats_and_scalar_shapes(make_periodic):
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.1)
    s = make_periodic(4)
    zs = np.exp(1j * np.array([0.3, 2.5]))
    for seq in (qp, s):
        scalar = T.lyapunov(seq, complex(zs[1]), n_steps=2000)
        assert type(scalar) is float
        assert scalar == pytest.approx(T.lyapunov(seq, zs, n_steps=2000)[1], abs=1e-14)
    assert T.monodromy(s, 4, zs[0]).shape == (2, 2)
    assert T.monodromy(s, 4, zs[:0]).shape == (0, 2, 2)
    for seq in (qp, s):
        assert T.lyapunov(seq, zs[:0], n_steps=2000).shape == (0,)
    d = F.discriminant(s, 4, 0.3)
    assert type(d) is float
    assert d == pytest.approx(F.discriminant(s, 4, np.array([0.3, 2.5]))[0], abs=1e-14)


def test_batched_checks_reject_any_bad_point():
    raw = C.CoefficientSequence(fn=lambda n: np.full(n.shape, 0.2 + 0j))
    good = np.exp(1j * np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=r"\|z\|"):
        T.lyapunov(raw, np.append(good, 0.5))
    with pytest.raises(ValueError, match="nonzero"):
        T.monodromy(C.constant_seq(0.2), 2, np.append(good, 0.0))
    with pytest.raises(ValueError, match="1-d"):
        T.lyapunov(raw, good.reshape(3, 1))
    outside = C.CoefficientSequence(fn=lambda n: np.where(n == 7, 1.5, 0.0))
    with pytest.raises(ValueError, match=r"\|alpha\|"):
        T.lyapunov(outside, good, n_steps=100)
    with pytest.raises(ValueError):
        T.lyapunov(raw, good, n_steps=0)


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
    eig = np.linalg.eigvals(F.floquet_matrices(seq, q, [0.0, math.pi / q])).ravel()
    for edge in arcs.arcs.ravel():
        assert np.min(np.abs(eig - cmath.exp(1j * edge))) < 1e-7
        assert abs(abs(F.discriminant(seq, q, edge)) - 2.0) < 1e-6


def _raw_map(n):
    return 0.3 * np.exp(0.7j * n * n)


def _qp(lam, beta, theta):
    return lambda n: lam * cmath.exp(2j * math.pi * (n * beta + theta))


def _sieved(f):
    return lambda m: 0j if m % 2 == 0 else f((m + 1) // 2)


def _pt_stage(base_amp, amps, periods):
    """Stage len(amps) of a Pastur-Tkachenko family, summed site by site."""
    def f(n):
        j, v = n % periods[len(amps)], base_amp
        for m, amp in enumerate(amps):
            v += amp * math.cos(2.0 * math.pi * j / periods[m + 1])
        return v
    return f


_PT = C.pastur_tkachenko_family(0.2, lambda n: 0.05 / (n + 1), 2, 2)
_TABLE = [0.1, 0.2j, -0.3, 0.4 + 0.1j, 0.0]
# each sequence with an independent per-site formula of its values
SEQUENCES = {
    "constant": (C.constant_seq(0.4 - 0.2j), lambda n: 0.4 - 0.2j),
    "quasiperiodic": (C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25),
                      _qp(0.5, 0.3819660112501051, 0.25)),
    "periodic_table": (C.periodic_table_seq(_TABLE), lambda n: _TABLE[n % 5]),
    "periodize": (C.periodize(C.quasiperiodic_seq(0.6, 0.1, 0.0), 6),
                  lambda n: _qp(0.6, 0.1, 0.0)(n % 6)),
    "pt_stage_1": (_PT.stages[1], _pt_stage(0.2, [0.05], [2, 4, 8])),
    "pt_stage_2": (_PT.stages[2], _pt_stage(0.2, [0.05, 0.025], [2, 4, 8])),
    "sieve_periodic": (O.sieve(C.periodic_table_seq([0.3, -0.2j])),
                       _sieved(lambda n: [0.3, -0.2j][n % 2])),
    "sieve_quasiperiodic": (O.sieve(C.quasiperiodic_seq(0.4, 0.2, 0.1)),
                            _sieved(_qp(0.4, 0.2, 0.1))),
    "shift_quasiperiodic": (O.shift_seq(C.quasiperiodic_seq(0.4, 0.2, 0.1), -7),
                            lambda n: _qp(0.4, 0.2, 0.1)(n - 7)),
    # a map handed straight to CoefficientSequence, with no constructor
    "raw_fn": (C.CoefficientSequence(fn=_raw_map),
               lambda n: 0.3 * cmath.exp(0.7j * n * n)),
    "sieve_raw_fn": (O.sieve(C.CoefficientSequence(fn=_raw_map)),
                     _sieved(lambda n: 0.3 * cmath.exp(0.7j * n * n))),
    "shift_sieve_raw_fn": (
        O.shift_seq(O.sieve(C.CoefficientSequence(fn=_raw_map)), 3),
        lambda n: _sieved(lambda k: 0.3 * cmath.exp(0.7j * k * k))(n + 3)),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
@settings(max_examples=25, deadline=None)
@given(lo=st.integers(-3000, 3000), length=st.integers(0, 300))
def test_window_equals_pointwise_values(name, lo, length):
    seq, formula = SEQUENCES[name]
    got = seq.window(lo, lo + length)
    assert got.dtype == complex and got.shape == (length,)
    np.testing.assert_array_equal(got, [formula(n) for n in range(lo, lo + length)])
    if length:  # a one-site read is the window of that site
        assert seq(lo) == got[0] and type(seq(lo)) is complex


def test_grids_wider_than_one_kernel_pass(make_periodic):
    s = make_periodic(4)
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25)
    zs = np.exp(1j * np.linspace(0.0, TWO_PI, 2 * T._POINTS + 3, endpoint=False))
    mono = T.monodromy(s, 4, zs)
    lyap = T.lyapunov(qp, zs, n_steps=40)
    for i in (0, T._POINTS - 1, T._POINTS, 2 * T._POINTS + 2):
        np.testing.assert_allclose(mono[i], monodromy_oracle(s, 4, zs[i]), rtol=0, atol=1e-12)
        assert abs(lyap[i] - birkhoff_oracle(qp, zs[i], 40)) < 1e-12


# ---------------------------------------------------------------------------
# orbit lanes: narrow grids advance P segments of the orbit at once
# ---------------------------------------------------------------------------

def one_lane_reference(seq, zs, n, scale_every=SCALE_EVERY):
    """Birkhoff estimates from one sequential column product per pass of T._POINTS points.

    The steps, the rescaling and the reduction are those of a single orbit
    lane: at site j the first column (u, w) of the product at every point
    becomes (z u - conj(a) w, w - a z u), every scale_every-th step divides
    it by its larger entry, and the logs of 1/rho are summed once per block
    of T._BLOCK sites.  The product's norm is |u| + |w|.
    """
    zs = zs / np.abs(zs)
    out = []
    for i in range(0, zs.size, T._POINTS):
        part = zs[i:i + T._POINTS]
        u, w = np.ones(part.size, dtype=complex), np.zeros(part.size, dtype=complex)
        log_scale = np.zeros(part.size)
        for lo in range(0, n, T._BLOCK):
            al = seq.window(lo, min(lo + T._BLOCK, n))
            for j, a in enumerate(al, start=lo):
                u *= part  # in place as in the kernel: a one-point u * z may round otherwise
                u, w = u + -a.conjugate() * w, w + -a * u
                if (j + 1) % scale_every == 0:
                    s = np.maximum(np.abs(u), np.abs(w))
                    s = np.where(s > 0, s, 1.0)
                    u, w = u / s, w / s
                    log_scale += np.log(s)
            log_scale += (-0.5 * np.log1p(-(al.real * al.real + al.imag * al.imag))).sum()
        out.append((log_scale + np.log(np.abs(u) + np.abs(w))) / n)
    return np.concatenate(out)


def mpmath_lyapunov(seq, z, n, dps=40):
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z)
        m = mpmath.eye(2)
        for j in range(n):
            a = mpmath.mpc(seq(j))
            rho = mpmath.sqrt(1 - abs(a) ** 2)
            m = mpmath.matrix([[zm, -mpmath.conj(a)], [-zm * a, 1]]) / rho * m
        return float(mpmath.log(max(mpmath.svd_c(m, compute_uv=False))) / n)


lane_grids = st.sampled_from([1, 63, 64, 65, 2047, 2048, 2049])
lane_steps = st.integers(1, 3 * T._BLOCK).filter(lambda n: n % T._BLOCK and n % SCALE_EVERY)


def matmul_reference(seq, zs, n, scale_every=SCALE_EVERY):
    """Birkhoff rates, n_half and the half-orbit rates from two-column matmul steps.

    Each lane carries both columns of its product, and a step at site j
    scales row 0 by z, then multiplies every lane by its factor
    (1/rho) [[1, -conj(a)], [-a, 1]] in one batched matmul.  Grid passes,
    lanes, joins and the half-orbit rule follow T._POINTS and T._lane_count.
    """
    lanes = T._lane_count(zs.size, n)

    def advance(part, starts, length, snap=0):
        """(P, g, 2, 2) lane products and (P, g) log scales, at the end and after snap steps."""
        g = part.size
        al = seq.window(np.arange(length)[:, None] + starts)
        r = 1.0 / np.sqrt(1.0 - np.abs(al) ** 2)
        c = np.empty(al.shape + (2, 2), dtype=complex)
        c[..., 0, 0] = c[..., 1, 1] = r
        c[..., 0, 1] = -al.conj() * r
        c[..., 1, 0] = -al * r
        zz = np.concatenate([part, part])
        x = np.zeros((starts.size, 2, 2 * g), dtype=complex)
        x[:, 0, :g] = x[:, 1, g:] = 1.0
        log_scale = np.zeros((starts.size, g))
        snapped = None
        for j in range(length):
            x[:, 0] *= zz
            x = c[j] @ x
            if (j + 1) % scale_every == 0:
                s = np.abs(x).reshape(-1, 4, g).max(axis=1)
                x = x / np.concatenate([s, s], axis=1)[:, None]
                log_scale = log_scale + np.log(s)
            if j + 1 == snap:
                snapped = x.reshape(-1, 2, 2, g).transpose(0, 3, 1, 2), log_scale
        return (x.reshape(-1, 2, 2, g).transpose(0, 3, 1, 2), log_scale), snapped

    def join(later, acc):
        m = later[0] @ acc[0]
        s = np.abs(m).reshape(-1, 4).max(axis=1)
        return m / s[:, None, None], later[1] + acc[1] + np.log(s)

    def rate(prod, steps):
        return (prod[1] + np.log(np.linalg.norm(prod[0], 2, axis=(1, 2)))) / steps

    rates, halves = [], []
    for i in range(0, zs.size, T._POINTS):
        part = zs[i:i + T._POINTS]
        if lanes == 1:
            n_half = n // 2
            (m, log), snapped = advance(part, np.zeros(1, dtype=int), n, n_half)
            full = m[0], log[0]
            half = snapped and (snapped[0][0], snapped[1][0])
        else:
            length = n // lanes
            n_half = lanes // 2 * length
            (m, log), _ = advance(part, np.arange(lanes) * length, length)
            full = m[0], log[0]
            for p in range(1, lanes):
                if p == lanes // 2:
                    half = full
                full = join((m[p], log[p]), full)
            if lanes * length < n:
                (m, log), _ = advance(part, np.array([lanes * length]), n - lanes * length)
                full = join((m[0], log[0]), full)
        rates.append(rate(full, n))
        halves.append(rate(half, n_half) if n_half else None)
    return np.concatenate(rates), n_half, np.concatenate(halves) if n_half else None


def advance_reference(seq, zs, starts, length, cols, snap=0):
    """T._advance as it was before its chunked loop: one step at a time over reversed rows.

    Each step multiplies the (2, P, 1) coefficients, broadcast over the
    points, with the reversed rows x[::-1]; the rescale and snapshot tests
    run after every step.  Its arithmetic is the kernel's, element for
    element, so both must give the same bits.
    """
    lanes, g = starts.size, zs.size
    x = np.zeros((2, lanes, cols * g), dtype=complex)
    x[0, :, :g] = x[1, :, g:] = 1.0  # the identity, or its first column
    y = np.empty_like(x)
    z_row = np.tile(zs, cols)
    log_scale = np.zeros((lanes, g))
    x_snap = log_snap = None
    # one window call per block: a (block, 2, P) coefficient array of <= 1 MB
    block = max(1, min(T._BLOCK, T._BLOCK_SITES // lanes))
    for lo in range(0, length, block):
        hi = min(lo + block, length)
        al = seq.window(np.arange(lo, hi)[:, None] + starts)
        mod = np.abs(al)
        if not np.all(mod < 1.0):
            raise ValueError(f"|alpha| must be < 1, got {np.nanmax(mod)}")
        log_rho = -0.5 * np.log1p(-(al.real * al.real + al.imag * al.imag))
        coef = -np.stack([al.conj(), al], axis=1)[..., None]
        for j, c in zip(range(lo, hi), coef):
            # (u, w) <- (z u - conj(a) w, w - a z u)
            x[0] *= z_row
            np.multiply(c, x[::-1], out=y)
            x += y
            if (j + 1) % SCALE_EVERY == 0:
                xs = x.reshape(2, lanes, cols, g)
                s = np.abs(xs).max(axis=(0, 2))
                s = np.where(s > 0, s, 1.0)
                xs /= s[:, None]
                log_scale += np.log(s)
            if j + 1 == snap:
                x_snap = x.copy()
                log_snap = log_scale + log_rho[:j + 1 - lo].sum(axis=0)[:, None]
        log_scale += log_rho.sum(axis=0)[:, None]
    return x, log_scale, x_snap, log_snap


def assert_same_bits(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cols, lanes, g", [(1, 1, 1), (2, 8, 63), (2, 128, 64), (1, 3, 2049)])
def test_rescale_keeps_the_bits_of_the_complex_division(cols, lanes, g):
    # the reference divides by s where _rescale multiplies by 1 / s: random
    # (2, cols) products over 600 decades, in the kernel's (2, P, cols, g)
    # layout, some with a zero column and some all zero (s read as 1)
    rng = np.random.default_rng(cols + lanes + g)
    shape = (2, lanes, cols, g)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m *= 10.0 ** rng.uniform(-300, 300, (lanes, 1, g))
    m[:, :, 0][:, rng.random((lanes, g)) < 0.3] = 0.0
    m.transpose(0, 2, 1, 3)[..., rng.random((lanes, g)) < 0.2] = 0.0
    s = np.abs(m).max(axis=(0, 2))
    s = np.where(s > 0, s, 1.0)
    want = m / s[:, None]
    got = m.copy()
    log_s = T._rescale(got)
    assert_same_bits(got, want)
    assert_same_bits(log_s, np.log(s))


# one lane over two blocks and a leftover; 32 lanes (lyapunov at 64 points);
# 312 lanes, whose blocks of 105 steps end between rescalings
@pytest.mark.parametrize("g, lanes, length", [
    (1, 1, 2 * T._BLOCK + 37), (63, 1, 2 * T._BLOCK + 37), (T._POINTS, 1, T._BLOCK + 5),
    (64, 32, 633), (1, 312, 333),
])
def test_birkhoff_kernel_equals_the_stepwise_reference_bitwise(g, lanes, length):
    assert length % SCALE_EVERY and length % T._BLOCK
    seq = C.quasiperiodic_seq(0.9, 0.3819660112501051, 0.2)
    zs = np.exp(1j * TWO_PI * (np.arange(g) + 0.3) / g)
    starts = np.arange(lanes) * length
    for snap in (0, length // 2 + 1, length):  # the middle one falls inside a chunk
        got = T._advance(seq, zs, starts, length, 1, snap)
        want = advance_reference(seq, zs, starts, length, 1, snap)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


# the Weyl lanes: both columns, several lanes, points inside the disk down
# to z = 0, lengths that end between rescalings and past a block
@pytest.mark.parametrize("lanes, length", [(2, 37), (4, 511), (7, 2 * T._BLOCK + 5)])
def test_two_column_lanes_off_the_circle_equal_the_stepwise_reference_bitwise(lanes, length):
    assert length % SCALE_EVERY
    seq = C.quasiperiodic_seq(0.9, 0.3819660112501051, 0.2)
    radii = np.repeat([0.0, 0.5, 0.95, 1.0 - 1e-6], 3)
    zs = radii * np.exp(1j * TWO_PI * (np.arange(radii.size) + 0.3) / radii.size)
    starts = np.arange(lanes) * length
    got = T._advance(seq, zs, starts, length, 2)
    want = advance_reference(seq, zs, starts, length, 2)
    for a, b in zip(got, want):
        assert_same_bits(a, b)


@pytest.mark.parametrize("q", [2, 16, 34, 256])
@pytest.mark.parametrize("g", [1, 63, 2049])
def test_monodromy_equals_the_stepwise_reference_bitwise(monkeypatch, q, g):
    seq = _radius_09_table(q)
    rng = np.random.default_rng(q + g)  # points on and off the circle
    zs = np.exp(1j * TWO_PI * rng.random(g)) * np.where(rng.random(g) < 0.5, 1.0,
                                                        0.5 + rng.random(g))
    got = T.monodromy(seq, q, zs)
    # per point: the numpy oracle's own rounding reaches 7.7e-12 |Phi(z)| at q = 256
    want = np.array([monodromy_oracle(seq, q, z) for z in zs])
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(want).max(axis=(1, 2))))
    monkeypatch.setattr(T, "_advance", advance_reference)
    assert_same_bits(got, T.monodromy(seq, q, zs))


@settings(max_examples=15, deadline=None)
@given(seq=quasiperiodic, g=st.sampled_from([1, 63, 64, 2049]), n=lane_steps,
       shift=st.floats(0.0, 1.0))
@example(seq=C.quasiperiodic_seq(0.7, 0.3, 0.9), g=1, n=4 * SCALE_EVERY - 3, shift=0.2)
@example(seq=C.quasiperiodic_seq(0.5, 0.61, 0.4), g=1, n=2 * T._BLOCK + 21, shift=0.7)
@example(seq=C.quasiperiodic_seq(0.6, 0.13, 0.0), g=64, n=3 * T._BLOCK - 1, shift=0.0)
@example(seq=C.quasiperiodic_seq(0.9, 0.38, 0.5), g=2049, n=T._BLOCK + 37, shift=0.5)
def test_column_kernel_matches_the_matmul_reference(seq, g, n, shift):
    zs = np.exp(1j * TWO_PI * (np.arange(g) + shift) / g)
    with certificates() as kept:
        got = T.lyapunov(seq, zs, n_steps=n)
    want, n_half, want_half = matmul_reference(seq, zs, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    if n_half:
        assert kept["half_orbit"][0] == n_half
        np.testing.assert_allclose(kept["half_orbit"][1], want_half, rtol=0, atol=1e-12)
    else:
        assert list(kept) == ["lanes"]


@settings(max_examples=20, deadline=None)
@given(seq=quasiperiodic, g=lane_grids, n=lane_steps, shift=st.floats(0.0, 1.0),
       data=st.data())
@example(seq=C.quasiperiodic_seq(0.7, 0.3, 0.9), g=1, n=4 * SCALE_EVERY - 3, shift=0.2,
         data=None)
@example(seq=C.quasiperiodic_seq(0.5, 0.61, 0.4), g=63, n=2 * T._BLOCK + 21, shift=0.7,
         data=None)
@example(seq=C.quasiperiodic_seq(0.6, 0.13, 0.0), g=1, n=3 * T._BLOCK - 1, shift=0.0,
         data=None)
def test_lanes_match_per_point_and_mpmath_products(seq, g, n, shift, data):
    lanes = T._lane_count(g, n)
    assume(lanes == 1 or n % lanes)
    zs = np.exp(1j * TWO_PI * (np.arange(g) + shift) / g)
    got = T.lyapunov(seq, zs, n_steps=n)
    idx = sorted({0, g - 1, g // 2} | ({data.draw(st.integers(0, g - 1))} if data else set()))
    for i in idx:
        assert abs(got[i] - birkhoff_oracle(seq, zs[i], n)) < 1e-12
    assert abs(got[idx[-1]] - mpmath_lyapunov(seq, zs[idx[-1]], n)) < 1e-12


def band_edge_distance(lam, beta, thetas):
    """The angle from each of thetas to the nearer band edge of
    quasiperiodic_seq(lam, beta, .), a gauge rotation of the constant
    sequence lam: its band is the arc between -2 pi beta +- 2 arcsin(lam)
    that holds pi - 2 pi beta."""
    edges = -TWO_PI * beta + np.array([1.0, -1.0]) * 2.0 * np.arcsin(lam)
    return np.abs((thetas[:, None] - edges + np.pi) % TWO_PI - np.pi).min(axis=1)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.05, 0.99), beta=st.floats(0.0, 1.0), theta=st.floats(0.0, 1.0),
       g=st.sampled_from([1, 2, 7, 63, 64, 100, 255, 511, 1023]), n=st.integers(256, 6000),
       shift=st.floats(0.0, 1.0))
@example(lam=0.9, beta=0.3819660112501051, theta=0.2, g=64, n=5086, shift=0.3)
@example(lam=0.99, beta=0.0, theta=0.0, g=255, n=256, shift=0.984375)  # a point at an edge
def test_joined_lanes_match_the_one_lane_product(lam, beta, theta, g, n, shift):
    # the tree of joins, its half-orbit node and the leftover segment against
    # one sequential lane over the same sites: to 5e-12 at points 0.01 or more
    # from a band edge, and to 1e-6 nearer, where the joins lose up to 2e-7
    seq = C.quasiperiodic_seq(lam, beta, theta)
    thetas = TWO_PI * (np.arange(g) + shift) / g
    zs = np.exp(1j * thetas)
    with certificates() as kept:
        got = T.lyapunov(seq, zs, n_steps=n)
    n_half, half = kept["half_orbit"]
    assert T._lane_count(g, n) > 1
    tol = np.where(band_edge_distance(lam, beta, thetas) >= 0.01, 5e-12, 1e-6)
    zs = zs / np.abs(zs)
    assert np.all(np.abs(got - T._pass(seq, zs, n, 1)[0]) <= tol)
    assert np.all(np.abs(half - T._pass(seq, zs, n_half, 1)[0]) <= tol)


@pytest.mark.xfail(strict=True, reason="joined lanes lose up to 2e-7 within 0.01 of a band edge")
def test_joined_lanes_match_mpmath_next_to_a_band_edge():
    # 2.52e-5 from the band edge 2 arcsin(0.985) at N = 5 500: 64 joined lanes
    # are off by 3.0e-9 (85 sequential joins were off by 2.6e-9), while one
    # lane meets 40-digit mpmath to 5e-13
    seq = C.quasiperiodic_seq(0.985, 0.0, 0.0)
    zs = np.exp(1j * np.array([2.0 * np.arcsin(0.985) + 2.52e-5]))
    want = mpmath_lyapunov(seq, (zs / np.abs(zs))[0], 5500)
    assert abs(T.lyapunov(seq, zs, n_steps=5500)[0] - want) < 5e-12


def cosine_seq(lam, beta, theta):
    """alpha_n = lam cos(2 pi (n beta + theta)).  The rotating phase of
    ``quasiperiodic_seq`` is a gauge of the constant sequence lam, so all its
    orbit segments of one length have products of one norm; these do not."""
    return C.CoefficientSequence(fn=lambda n: lam * np.cos(TWO_PI * (n * beta + theta)))


@pytest.mark.parametrize("g, n", [(64, 20_000 + 7), (7, 3005), (1, 5000)])
def test_the_half_orbit_is_the_earlier_node_of_the_last_level(g, n):
    seq = cosine_seq(0.6, 0.3819660112501051, 0.3)
    zs = np.exp(1j * TWO_PI * (np.arange(g) + 0.5) / g)
    with certificates() as kept:
        got = T.lyapunov(seq, zs, n_steps=n)
    n_half, half = kept["half_orbit"]
    zs = zs / np.abs(zs)
    earlier = T._pass(seq, zs, n_half, 1)[0]
    later = T._pass(O.shift_seq(seq, n_half), zs, n_half, 1)[0]
    assert np.abs(later - earlier).max() > 1e-6  # the two halves tell apart
    np.testing.assert_allclose(half, earlier, rtol=0, atol=5e-12)
    np.testing.assert_allclose(got, T._pass(seq, zs, n, 1)[0], rtol=0, atol=5e-12)


def test_joined_lanes_match_mpmath_at_the_worst_seeded_draw():
    # the worst of 80 draws from numpy seed 4, away from band edges: 64 lanes
    # of 79 steps and a leftover of 30.  One lane meets 40-digit mpmath to
    # 1e-16; the joins of lanes whose second columns are rebuilt lose 1e-12.
    seq = C.quasiperiodic_seq(0.8342118218466933, 0.14781646600201837, 0.594723939517113)
    zs = np.exp(2j * np.pi * np.array([0.5381172819829335]))
    n = 5086
    want = mpmath_lyapunov(seq, (zs / np.abs(zs))[0], n)
    assert T._lane_count(1, n) == 64
    assert abs(T.lyapunov(seq, zs, n_steps=n)[0] - want) < 5e-12
    assert abs(T._pass(seq, zs / np.abs(zs), n, 1)[0][0] - want) < 1e-15


def test_lane_count_fills_narrow_passes_only():
    # the largest power of two with lanes * g <= 4 * _POINTS and lanes >= 4 rescalings long
    assert T._lane_count(64, 20_000) == 4 * T._POINTS // 64 == 128
    assert T._lane_count(512, 100_000) == 16
    assert T._lane_count(64, 1000) == 8  # 1000 // 64 = 15 lanes, rounded down
    assert T._lane_count(100, 20_000) == 64  # 8192 // 100 = 81, rounded down
    assert T._lane_count(1, 20_000) == 256  # 20_000 // 64 = 312, rounded down
    assert T._lane_count(1, 4 * 16 - 1) == 1
    assert T._lane_count(1, 2 * 4 * 16) == 2
    assert T._lane_count(T._POINTS // 2 - 1, 20_000) == 8
    for g in (T._POINTS // 2, T._POINTS, 3 * T._POINTS):
        assert T._lane_count(g, 20_000) == 1
    for g in (1, 2, 7, 63, 64, 100, 255, 511, 1023):
        for n in (1, 63, 64, 1000, 5086, 20_000, 10 ** 6):
            lanes = T._lane_count(g, n)
            fits = [p for p in (2 ** k for k in range(14)) if p * g <= 8192 and p * 64 <= n]
            assert lanes == max(fits, default=1)


@pytest.mark.parametrize("g, n", [(T._POINTS // 2, 2 * T._BLOCK + 37),
                                  (T._POINTS, 333), (T._POINTS + 1, 2 * SCALE_EVERY + 5)])
def test_wide_grids_equal_the_one_lane_reference_bitwise(g, n):
    seq = C.quasiperiodic_seq(0.7, 0.3819660112501051, 0.2)
    zs = np.exp(1j * TWO_PI * (np.arange(g) + 0.25) / g)
    np.testing.assert_array_equal(T.lyapunov(seq, zs, n_steps=n), one_lane_reference(seq, zs, n))


def test_strong_coupling_over_a_long_orbit_stays_finite():
    seq = C.quasiperiodic_seq(0.99, 0.3819660112501051, 0.1)
    zs = np.exp(1j * TWO_PI * np.arange(64) / 64)
    with np.errstate(all="raise"):
        got = T.lyapunov(seq, zs, n_steps=100_000)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, one_lane_reference(seq, zs, 100_000), rtol=0, atol=1e-12)


@pytest.mark.parametrize("g, n", [(1, 5000), (64, 20_000 + 7), (65, 999), (1500, 801),
                                  (T._POINTS + 3, 120)])
def test_half_orbit_estimates_are_the_shorter_products(g, n):
    seq = C.quasiperiodic_seq(0.6, 0.3819660112501051, 0.3)
    zs = np.exp(1j * TWO_PI * (np.arange(g) + 0.5) / g)
    with certificates() as kept:
        full = T.lyapunov(seq, zs, n_steps=n)
    assert list(kept) == ["lanes", "half_orbit"]
    n_half, vals = kept["half_orbit"]
    lanes = kept["lanes"]
    assert lanes == T._lane_count(g, n)
    assert n_half == (n // 2 if lanes == 1 else lanes // 2 * (n // lanes))
    np.testing.assert_allclose(vals, T.lyapunov(seq, zs, n_steps=n_half), rtol=0, atol=1e-12)
    np.testing.assert_allclose(full, T.lyapunov(seq, zs, n_steps=n), rtol=0, atol=0)
    # periodic sequences use the exact formula and record nothing
    with certificates() as kept:
        T.lyapunov(C.constant_seq(0.3), zs, n_steps=n)
    assert kept == {}
    with certificates() as kept:
        scalar = T.lyapunov(seq, complex(zs[0]), n_steps=n)
    assert type(kept["half_orbit"][1]) is float and type(scalar) is float


def test_one_collector_keeps_half_orbits_and_edge_residuals(make_periodic):
    seq = C.quasiperiodic_seq(0.6, 0.3819660112501051, 0.3)
    per = make_periodic(4)
    zs = np.exp(1j * TWO_PI * (np.arange(8) + 0.5) / 8)
    with certificates() as kept:
        rates = T.lyapunov(seq, zs, n_steps=1000)
        with certificates() as inner:
            scalar = T.lyapunov(seq, complex(zs[0]), n_steps=101)
            T.lyapunov(C.constant_seq(0.3), zs, n_steps=1000)  # periodic: no record
        F.periodic_spectrum(per, 4)  # after the inner block, into the outer dict
    assert set(kept) == {"lanes", "half_orbit", "max_edge_residual"}
    n_half, vals = kept["half_orbit"]
    lanes = kept["lanes"]
    assert lanes == T._lane_count(zs.size, 1000)
    assert n_half == lanes // 2 * (1000 // lanes) and vals.shape == rates.shape
    np.testing.assert_allclose(vals, T.lyapunov(seq, zs, n_steps=n_half), rtol=0, atol=1e-12)
    edge = kept["max_edge_residual"]
    assert edge["tol"] == 1e-10 and 0 <= edge["value"] <= edge["tol"]
    # the inner block collected apart: the scalar call, as a float
    assert list(inner) == ["lanes", "half_orbit"] and inner["half_orbit"][0] == 101 // 2
    assert inner["lanes"] == T._lane_count(1, 101) == 1
    assert type(inner["half_orbit"][1]) is float and type(scalar) is float
    assert abs(inner["half_orbit"][1] - birkhoff_oracle(seq, zs[0], 101 // 2)) < 1e-12
    # outside any block nothing is kept
    before = {name: repr(value) for name, value in kept.items()}
    T.lyapunov(seq, zs, n_steps=500)
    F.periodic_spectrum(per, 8)
    assert {name: repr(value) for name, value in kept.items()} == before
    assert E._CERTIFICATES.get() is None


@settings(max_examples=40, deadline=None)
@given(seq=quasiperiodic, n=st.integers(1, 200), g=st.sampled_from([1, 63, 1024, 2049]))
@example(seq=C.quasiperiodic_seq(0.7, 0.3, 0.9), n=1, g=2049)
@example(seq=C.quasiperiodic_seq(0.7, 0.3, 0.9), n=2, g=1)
@example(seq=C.quasiperiodic_seq(0.5, 0.61, 0.4), n=199, g=63)
def test_short_orbits_match_the_oracle_and_record_half_orbits(seq, n, g):
    zs = np.exp(1j * TWO_PI * (np.arange(g) + 0.5) / g)
    with certificates() as kept:
        got = T.lyapunov(seq, zs, n_steps=n)
    for i in sorted({0, g // 2, g - 1}):
        assert abs(got[i] - birkhoff_oracle(seq, zs[i], n)) < 1e-12
    assert ("half_orbit" in kept) == (n >= 2)
    lanes = kept["lanes"]
    assert lanes == T._lane_count(g, n)
    if n >= 2:
        # n // 2 for one lane (wide grids, n < 128) and for two (n >= 128)
        assert kept["half_orbit"][0] == (n // 2 if lanes == 1 else lanes // 2 * (n // lanes))


def test_lane_blocks_read_alpha_once_per_block():
    calls = []
    qp = C.quasiperiodic_seq(0.5, 0.3819660112501051, 0.25)

    def fn(n):
        calls.append(n.shape)
        return qp.fn(n)

    seq = C.CoefficientSequence(fn=fn)
    n = 3 * 20_000 + 7
    T.lyapunov(seq, np.exp(1j * np.arange(64) * TWO_PI / 64), n_steps=n)
    lanes = 4 * T._POINTS // 64
    assert T._lane_count(64, n) == lanes
    length = n // lanes
    # one (block, lanes) read per block, then the leftover lane
    assert all(shape[1] == lanes for shape in calls[:-1])
    assert sum(shape[0] for shape in calls[:-1]) == length
    assert calls[-1] == (n - lanes * length, 1)
    assert max(shape[0] * shape[1] for shape in calls) * 64 <= 2 * 2 ** 20


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_window_reads_an_array_of_sites(name):
    seq, formula = SEQUENCES[name]
    sites = np.array([[-7, 0, 3], [12, -7, 1001]])
    got = seq.window(sites)
    assert got.dtype == complex and got.shape == sites.shape
    np.testing.assert_array_equal(got, [[formula(int(n)) for n in row] for row in sites])
    assert seq.window(np.arange(5, 5)).shape == (0,)
