import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvlab import cli
from cmvlab import coefficients as C
from cmvlab import floquet as F
from cmvlab import operator as O
from cmvlab.errors import DegenerateBandError, NumericalInstabilityError
from cmvlab.spectral_sets import CircleArcSet, TWO_PI
from kgrid_oracle import band_arcs_from_kgrid


def unit(theta):
    return cmath.exp(1j * theta)


def matched_fd(seq, q, k, h=1e-5):
    """Analytic velocities at k next to central finite differences with
    nearest-eigenvalue branch matching."""
    _, z, u = next(F.band_stacks(seq, q, [k - h, k, k + h]))
    dz = F.band_derivative(seq, q, k, u[1:2])[0]
    zm, zp = z[0], z[2]
    out = []
    for w, d in zip(z[1], dz):
        fd = (zp[np.argmin(np.abs(zp - w))] - zm[np.argmin(np.abs(zm - w))]) / (2 * h)
        out.append((d, fd))
    return out


def twisted_factors(seq, q, k):
    """assemble_lm's factors over one period, with M's corners times the
    Floquet phases e^{-ikq} at (0, q-1) and e^{ikq} at (q-1, 0), applied by
    hand: M has shape k.shape + (q, q)."""
    k = np.asarray(k, dtype=float)
    L, M = O.assemble_lm(seq, 0, q)
    M = np.array(np.broadcast_to(M, k.shape + (q, q)))
    M[..., 0, q - 1] *= np.exp(-1j * k * q)
    M[..., q - 1, 0] *= np.exp(1j * k * q)
    return L, M


def test_blocks_free_q2_k0():
    L, M = O.assemble_lm(C.constant_seq(0.0), 0, 2)
    np.testing.assert_allclose(L, [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(M, [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(F.floquet_matrices(C.constant_seq(0.0), 2, 0.0), np.eye(2),
                               atol=0)


def test_blocks_unitarity(make_periodic):
    for q in (2, 4, 8, 16):
        s = make_periodic(q, radius=0.7)
        for k in np.linspace(0.0, math.pi / q, 64):
            L, M = twisted_factors(s, q, k)
            for B in (L, M, F.floquet_matrices(s, q, k)):
                assert np.max(np.abs(B @ B.conj().T - np.eye(q))) < 1e-13


def test_blocks_validations():
    s = C.constant_seq(0.1)
    with pytest.raises(ValueError):
        F.floquet_matrices(s, 3, 0.0)
    s3 = C.periodize(s, 3)
    with pytest.raises(ValueError):
        F.floquet_matrices(s3, 4, 0.0)
    raw = C.CoefficientSequence(fn=lambda n: np.zeros(n.shape, complex))
    with pytest.raises(ValueError):
        F.floquet_matrices(raw, 2, 0.0)


@pytest.mark.parametrize("q", [2, 4, 34])
def test_floquet_matrices_are_the_twisted_factors_multiplied_bitwise(make_periodic, q):
    # E_q(k) = L_q M_q(k) from assemble_lm's factors with the corner phases
    # applied by hand, at a scalar k and over an array of k; each k of a stack
    # has the bits of its own call
    s = make_periodic(q, radius=0.7)
    ks = np.linspace(0.0, math.pi / q, 7)
    E = F.floquet_matrices(s, q, ks)
    assert E.shape == (7, q, q)
    assert np.array_equal(bits(E), bits(np.matmul(*twisted_factors(s, q, ks))))
    for i, k in enumerate(ks.tolist()):
        Ek = F.floquet_matrices(s, q, k)
        assert Ek.shape == (q, q)
        assert np.array_equal(bits(Ek), bits(np.matmul(*twisted_factors(s, q, k))))
        assert np.array_equal(bits(Ek), bits(E[i]))


def test_dual_operator_identity(make_periodic):
    for q in (2, 4, 8):
        s = make_periodic(q, radius=0.6)
        k = 0.3 / q
        L, M = twisted_factors(s, q, k)
        E = F.floquet_matrices(s, q, k)
        dual = M @ L
        conj = L.conj().T @ E @ L
        assert np.max(np.abs(dual - conj)) < 1e-13


def test_free_q2_eigens_on_circle():
    s = C.constant_seq(0.0)
    k = math.pi / 8
    _, z, _ = next(F.band_stacks(s, 2, k))
    got = sorted(np.angle(z[0]) % TWO_PI)
    expected = sorted([(2 * k) % TWO_PI, (-2 * k) % TWO_PI])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_band_stacks_contracts(make_periodic):
    for q in (2, 4, 8):
        s = make_periodic(q, radius=0.5)
        k = 0.7 * math.pi / q / 2
        _, z, u = next(F.band_stacks(s, q, k))
        assert z.shape == (1, q) and u.shape == (1, q, q)
        E = F.floquet_matrices(s, q, k)
        for n in range(q):
            zn, un = z[0, n], u[0, :, n]
            assert abs(np.linalg.norm(un) - 1) < 1e-12
            assert np.linalg.norm(E @ un - zn * un) < 1e-10
            assert abs(abs(zn) - 1) < 1e-12


def test_band_stacks_rejects_endpoint_k():
    s = C.constant_seq(0.3)
    with pytest.raises(ValueError):
        F.band_stacks(s, 2, 0.0)
    with pytest.raises(ValueError):
        F.band_stacks(s, 2, math.pi / 2)
    # one bad k in an array is enough
    with pytest.raises(ValueError, match="got 0.0"):
        F.band_stacks(s, 2, [0.1, 0.0, 0.2])


def test_band_stacks_checks_the_residual_of_every_k_and_pair(monkeypatch):
    # one eigenvector of one k tilted towards its neighbour leaves a residual
    # of 1e-6 and refuses the whole stack
    s = C.periodize(C.constant_seq(0.5), 4)
    ks = (np.arange(5) + 0.5) * (math.pi / 4) / 5
    exact = np.linalg.eigh
    next(F.band_stacks(s, 4, ks))

    def tilted(H):
        lam, vecs = exact(H)
        # the symmetrized transform has eigenvalues -2 cot(beta/2), beta the
        # angle of z from the pole: u_2 + d u_3 has residual d |z_3 - z_2|
        beta = 2 * np.arctan2(1.0, -lam[3] / 2)
        d = 1e-6 / abs(np.exp(1j * beta[3]) - np.exp(1j * beta[2]))
        vecs[3, :, 2] += d * vecs[3, :, 3]
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eigh", tilted)
    with pytest.raises(NumericalInstabilityError, match="1.00e-06"):
        next(F.band_stacks(s, 4, ks))


def _pole_on_the_spectrum(seq, q, k):
    return np.linalg.eigvals(F.floquet_matrices(seq, q, k))[:, 0]


@pytest.mark.parametrize("q, radius", [(2, 0.0), (8, 0.5)])
def test_band_stacks_refuses_a_pole_on_the_spectrum(monkeypatch, make_periodic, q, radius):
    # free q = 2: E is diagonal and pI - E exactly singular; q = 8: the
    # transform loses every digit and the residuals show it
    s = make_periodic(q, radius=radius)
    ks = (np.arange(5) + 0.5) * (math.pi / q) / 5
    next(F.band_stacks(s, q, ks))
    monkeypatch.setattr(F, "_poles", _pole_on_the_spectrum)
    with pytest.raises(NumericalInstabilityError):
        next(F.band_stacks(s, q, ks))


def test_band_stacks_degenerate_error():
    # folding the constant sequence to period 4 makes bands touch near pi/4
    s = C.periodize(C.constant_seq(0.5), 4)
    with pytest.raises(DegenerateBandError) as err:
        next(F.band_stacks(s, 4, [0.1, math.pi / 4 - 1e-10, 0.2]))
    assert err.value.k == math.pi / 4 - 1e-10 and err.value.gap < 1e-8


def test_band_derivative_free_q2():
    s = C.constant_seq(0.0)
    _, _, u = next(F.band_stacks(s, 2, 0.37))
    for dz in F.band_derivative(s, 2, 0.37, u)[0]:
        assert abs(dz) == pytest.approx(2.0, abs=1e-12)


def test_band_derivative_fd_example():
    s = C.constant_seq(0.5)
    for dz, fd in matched_fd(s, 2, 0.4):
        assert abs(dz - fd) < 1e-6


def test_band_derivative_tangency(make_periodic):
    s = make_periodic(4, radius=0.5)
    _, z, u = next(F.band_stacks(s, 4, 0.11))
    for zn, dz in zip(z[0], F.band_derivative(s, 4, 0.11, u)[0]):
        assert abs((zn.conjugate() * dz).real) < 1e-8


def test_band_derivative_fd_sweep(make_periodic):
    for q in (2, 4, 8):
        s = make_periodic(q, radius=0.5)
        for j in range(4):
            k = (j + 0.5) * (math.pi / q) / 4
            try:
                for dz, fd in matched_fd(s, q, k):
                    if abs(fd) > 1e-8:
                        assert abs(dz - fd) / abs(fd) < 1e-5
            except DegenerateBandError:
                continue


def scalar_velocity(seq, q, k, u):
    """dz/dk = i q rho_{q-1} [conj(v(-1)) u(0) - conj(v(0)) u(-1)] for one
    pair u, in Python complex arithmetic: v = L_q^* u at sites 0 and q - 1 are
    the rows of the corner blocks Theta(alpha_0)^* and Theta(alpha_{q-2})^*."""
    def rho(a):
        return math.sqrt(1.0 - (a.real * a.real + a.imag * a.imag))  # C._abs2's formula

    a0, a2, a1 = seq(0), seq(q - 2), seq(q - 1)
    u = [complex(x) for x in u]
    phase = cmath.exp(-1j * k * q)
    v0 = a0 * u[0] + rho(a0) * u[1]
    v_m1 = phase * (rho(a2) * u[q - 2] - a2.conjugate() * u[q - 1])
    u_m1 = phase * u[q - 1]
    return 1j * q * rho(a1) * (v_m1.conjugate() * u[0] - v0.conjugate() * u_m1)


def bits(x):
    """Bit patterns of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("q", [2, 8, 32])
def test_band_stacks_is_bitwise_independent_of_the_k_batch(make_periodic, q):
    # the byte-identical bands.csv promise: the pole of each k depends on k
    # alone, so a stack gives each k the bits of its own call, and the array
    # velocities round like the scalar formula
    s = make_periodic(q, radius=0.5)
    for K in (1, 5, 64):
        ks = (np.arange(K) + 0.5) * (math.pi / q) / K
        for cut, z, u in F.band_stacks(s, q, ks):
            S = ks[cut].size
            dz = F.band_derivative(s, q, ks[cut], u)
            assert z.shape == dz.shape == (S, q) and u.shape == (S, q, q)
            for i, k in enumerate(ks[cut].tolist()):
                _, zi, ui = next(F.band_stacks(s, q, k))
                assert np.array_equal(bits(z[i]), bits(zi[0]))
                assert np.array_equal(bits(u[i]), bits(ui[0]))
                want = [scalar_velocity(s, q, k, ui[0, :, n]) for n in range(q)]
                assert np.array_equal(bits(dz[i]), bits(np.array(want)))


@st.composite
def band_problems(draw):
    """A random table whose period divides an even q <= 64, and K random
    interior k (inside (0.01, 0.99) pi/q, away from the closed gaps that a
    period below q leaves at the ends)."""
    q = 2 * draw(st.integers(1, 32))
    period = draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
    values = draw(st.lists(disk95, min_size=period, max_size=period))
    K = draw(st.sampled_from([1, 2, 3, 7, 64]))
    ks = draw(st.lists(st.floats(0.01, 0.99), min_size=K, max_size=K))
    return C.periodic_table_seq(values), q, np.array(ks) * (math.pi / q)


@settings(max_examples=30, deadline=None)
@given(problem=band_problems())
def test_band_stacks_match_eig_and_first_order_velocities(problem):
    # oracles: np.linalg.eig's eigenvalues, and dz/dk = u* (dE/dk) u for its
    # unit eigenvectors, within the bound of the benchmark's band oracle
    seq, q, ks = problem
    L, M = twisted_factors(seq, q, ks)
    dM = np.zeros_like(M)
    dM[:, 0, q - 1] = -1j * q * M[:, 0, q - 1]
    dM[:, q - 1, 0] = 1j * q * M[:, q - 1, 0]
    E = F.floquet_matrices(seq, q, ks)
    eps = np.finfo(float).eps
    for cut, z, u in F.band_stacks(seq, q, ks):
        dz = F.band_derivative(seq, q, ks[cut], u)
        for i, zi, dzi in zip(range(ks.size)[cut], z, dz):
            w, V = np.linalg.eig(E[i])
            V /= np.linalg.norm(V, axis=0)
            match = np.argmin(np.abs(zi[:, None] - w[None, :]), axis=1)
            assert np.array_equal(np.sort(match), np.arange(q))
            assert np.abs(zi - w[match]).max() <= 1e-12
            first_order = np.einsum("in,ij,jn->n", V.conj(), L @ dM[i], V)[match]
            sep = np.abs(w[:, None] - w[None, :]) + 4.0 * np.eye(q)
            tol = 4.0 * 64 * q * eps * q * (1.0 + 2.0 / sep.min(axis=1)[match])
            assert np.all(np.abs(dzi - first_order) <= tol)


def test_band_stacks_choose_the_poles_once_and_check_on_the_call(make_periodic):
    # q = 32 takes 32 k per stack: 70 k are three stacks, each of the same
    # bits as the k solved one at a time, under the poles of one _poles call
    q = 32
    s = make_periodic(q, radius=0.5)
    ks = (np.arange(70) + 0.5) * (math.pi / q) / 70
    with mock.patch.object(F, "_poles", wraps=F._poles) as poles:
        stacks = list(F.band_stacks(s, q, ks))
    assert poles.call_count == 1
    assert [ks[cut].size for cut, *_ in stacks] == [32, 32, 6]
    cut, z, u = stacks[1]
    for i in (0, 31):
        _, zi, ui = next(F.band_stacks(s, q, ks[cut][i]))
        assert np.array_equal(z[i], zi[0]) and np.array_equal(u[i], ui[0])
    with pytest.raises(ValueError, match="strictly inside"):
        F.band_stacks(s, q, [0.1, 0.0])  # refused before any stack is asked for


def test_band_stacks_temporaries_do_not_grow_with_k(make_periodic):
    # q = 128, K = 64: the eigenvectors of all k fill 16.8 MB, and the
    # temporaries of the eigenproblems stay below one more such array (one
    # stack over all k holds two)
    import tracemalloc

    q, K = 128, 64
    s = make_periodic(q, radius=0.5)
    ks = (np.arange(K) + 0.5) * (math.pi / q) / K
    next(F.band_stacks(s, q, ks[:1]))  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        z, u = np.empty((K, q), dtype=complex), np.empty((K, q, q), dtype=complex)
        for cut, zs, us in F.band_stacks(s, q, ks):
            z[cut], u[cut] = zs, us
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (z.nbytes + u.nbytes) <= u.nbytes


def test_periodic_spectrum_free_full():
    out = F.periodic_spectrum(C.constant_seq(0.0), 2)
    assert out.is_full()


def test_periodic_spectrum_constant_half_closed_form():
    out = F.periodic_spectrum(C.constant_seq(0.5), 2)
    assert out.arcs.shape == (1, 2)
    assert out.arcs[0][0] == pytest.approx(math.pi / 3, abs=1e-9)
    assert out.arcs[0][1] == pytest.approx(5 * math.pi / 3, abs=1e-9)


def test_periodic_spectrum_vs_dense_window():
    out = F.periodic_spectrum(C.constant_seq(0.5), 2)
    e = O.assemble_cmv(C.constant_seq(0.5), 0, 512)
    angles = np.angle(np.linalg.eigvals(e)) % TWO_PI
    inside = np.array([out.contains(a, tol=1e-3) for a in angles])
    assert inside.all()
    # eigenvalues cluster at band edges: both edges are approached within 1e-3
    assert np.min(np.abs(angles - math.pi / 3)) < 1e-3
    assert np.min(np.abs(angles - 5 * math.pi / 3)) < 1e-3


def test_periodic_spectrum_sieved_is_preimage(make_periodic):
    for s in (C.constant_seq(0.5), make_periodic(2, radius=0.6)):
        base = F.periodic_spectrum(s, 2)
        hat = F.periodic_spectrum(O.sieve(s), 4)
        assert hat.hausdorff(base.preimage_double()) < 1e-8


def test_periodic_spectrum_cross_validation_consistency(make_periodic):
    s = make_periodic(4, radius=0.6)
    disc = F.periodic_spectrum(s, 4)
    kgrid = band_arcs_from_kgrid(s, 4, 129)
    assert disc.hausdorff(kgrid) < TWO_PI / 2048


def test_monodromy_bound_free():
    out = F.monodromy_bound_check(C.constant_seq(0.0), 2, unit(0.7))
    assert out["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert out["rhs"] == pytest.approx(4.0, abs=1e-9)
    assert out["holds"]


def test_monodromy_bound_constant_sweep():
    s = C.constant_seq(0.5)
    checked = 0
    for j in range(50):
        th = math.pi / 3 + (j + 0.5) * (4 * math.pi / 3) / 50
        if abs(F.discriminant(s, 2, th)) >= 2 - 1e-9:
            continue
        out = F.monodromy_bound_check(s, 2, unit(th))
        assert out["holds"]
        checked += 1
    assert checked >= 45


def test_monodromy_bound_near_edge():
    s = C.constant_seq(0.5)
    # bisect for the angle where the discriminant reaches 2 - 1e-4
    lo, hi = math.pi / 3, math.pi / 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if F.discriminant(s, 2, mid) > 2 - 1e-4:
            lo = mid
        else:
            hi = mid
    out_edge = F.monodromy_bound_check(s, 2, unit(hi))
    out_mid = F.monodromy_bound_check(s, 2, unit(2.0))
    assert out_edge["holds"] and out_mid["holds"]
    assert out_edge["rhs"] > out_mid["rhs"]


def test_monodromy_bound_rejects_gap():
    with pytest.raises(ValueError):
        F.monodromy_bound_check(C.constant_seq(0.5), 2, unit(0.0))


# ---------------------------------------------------------------------------
# band edges from E_q(0) and E_q(pi/q): independent oracles
# ---------------------------------------------------------------------------

README_PT = {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 3,
             "decay": {"form": "geometric", "base": 4.0}}


def mp_gaps(seq, q, dps=30):
    """Gaps of sigma(E_q) from dps-digit eigenvalues of E_q(0), E_q(pi/q).

    The blocks repeat the formulas of ``floquet_matrices`` in mpmath; at
    k = 0 and k = pi/q the corner phases e^{-+ikq} are exactly +1 and -1.
    Gaps narrower than 1e-12 (the arc merge tolerance) are dropped: the
    rounding of the coefficients to doubles opens some closed gaps by a few
    1e-15, below what any double-precision edge can resolve.
    """
    with mpmath.workdps(dps):
        def block(a):
            a = mpmath.mpc(a)
            rho = mpmath.sqrt(1 - abs(a) ** 2)
            return a.conjugate(), rho, -a

        edges = []
        for phase, level in ((1, 2), (-1, -2)):
            L, M = mpmath.zeros(q), mpmath.zeros(q)
            for s in range(q - 1):
                B = L if s % 2 == 0 else M
                B[s, s], B[s, s + 1], B[s + 1, s + 1] = block(seq(s))
                B[s + 1, s] = B[s, s + 1]
            a_bar, rho, minus_a = block(seq(q - 1))
            M[0, 0], M[q - 1, q - 1] = minus_a, a_bar
            M[0, q - 1] = M[q - 1, 0] = phase * rho
            for z in mpmath.eig(L * M, left=False, right=False):
                edges.append((mpmath.arg(z) % (2 * mpmath.pi), level))
        edges.sort()
        gaps = []
        for (lo, la), (hi, lb) in zip(edges, edges[1:] + [edges[0]]):
            if hi < lo:
                hi += 2 * mpmath.pi
            if la == lb and hi - lo > 1e-12:
                gaps.append((float(lo), float(hi)))
    return CircleArcSet.from_arcs(gaps)


def test_readme_family_gaps_match_30_digit_edges():
    fam = cli._family(README_PT)
    measures = []
    narrowest = math.inf
    for s, q in zip(fam.stages, fam.periods()):
        out = F.periodic_spectrum(s, q)
        want = mp_gaps(s, q)
        got = out.complement()
        assert got.arcs.shape == want.arcs.shape
        np.testing.assert_allclose(got.arcs, want.arcs, rtol=0, atol=1e-12)
        narrowest = min(narrowest, np.min(np.diff(want.arcs, axis=1)))
        measures.append(out.measure())
    assert all(b < a for a, b in zip(measures, measures[1:]))
    # the finest stages open gaps far below any affordable angle grid
    assert narrowest < 1e-10


disk95 = st.builds(
    lambda r, t: r * cmath.exp(2j * math.pi * t),
    st.floats(0.0, 0.95), st.floats(0.0, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(disk95, min_size=1, max_size=8))
@example(values=[0j, 1e-12 + 0j])
@example(values=[0j, 1e-12 - 2.4492935982947066e-28j])
def test_doubled_period_closes_its_new_gaps(values):
    # sigma(E_2q) = sigma(E_q): every gap the doubling adds is closed
    seq = C.periodic_table_seq(values)
    q = 2 * seq.period
    assert F.periodic_spectrum(seq, q).hausdorff(F.periodic_spectrum(seq, 2 * q)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(values=st.lists(disk95, min_size=1, max_size=8))
def test_wrap_window_eigenvalues_lie_in_the_bands(values):
    seq = C.periodic_table_seq(values)
    q = 2 * seq.period
    arcs = F.periodic_spectrum(seq, q)
    e = O.assemble_cmv(seq, 0, 4 * q)
    for z in np.linalg.eigvals(e):
        assert arcs.contains(np.angle(z), tol=1e-10)


def dense_norm_diff(s1, s2, dim):
    """The dense formula: the 2-norm of the difference of the two dim-site
    periodic-wrap windows."""
    return float(np.linalg.norm(O.assemble_cmv(s1, 0, dim)
                                - O.assemble_cmv(s2, 0, dim), 2))


@settings(max_examples=60, deadline=None)
@given(v1=st.lists(disk95, min_size=1, max_size=8),
       v2=st.lists(disk95, min_size=1, max_size=8), m=st.integers(1, 4))
@example(v1=[0.5j], v2=[0.3, -0.2, 0.1j], m=2)  # common period 3, doubled to 6
@example(v1=[0.9 + 0j], v2=[0.2 + 0j], m=1)  # common period 1, one block of 2
def test_norm_diff_is_the_dense_window_norm(v1, v2, m):
    s1, s2 = C.periodic_table_seq(v1), C.periodic_table_seq(v2)
    common = math.lcm(len(v1), len(v2))
    dim = m * (2 * common if common % 2 else common)
    assert F.norm_diff(s1, s2, dim) == pytest.approx(dense_norm_diff(s1, s2, dim), abs=1e-14)


def test_norm_diff_takes_one_small_svd_per_stage_pair(monkeypatch):
    # the README family at dim 64: the stage pairs (4, 2), (8, 4) and (16, 8)
    # split the window into 16, 8 and 4 Floquet blocks, and no dim x dim
    # matrix is formed
    family = cli._family({"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 3,
                          "decay": {"form": "geometric", "base": 4.0}})
    svd, dense = np.linalg.svd, O._dense
    shapes, built = [], []

    def spy_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def spy_dense(ab):
        built.append(ab.shape[-1])
        return dense(ab)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(O, "_dense", spy_dense)
    verdict = C.lp_sum_criterion(family, 0, 1.0)
    assert shapes == [(16, 4, 4), (8, 8, 8), (4, 16, 16)]
    assert max(built) == 16
    periods, dim = family.periods(), 64
    want = sum(periods[n] * dense_norm_diff(family.stages[n], family.stages[n - 1], dim)
               for n in range(1, 4))
    assert verdict["lhs"] == pytest.approx(want, abs=1e-15)


def test_periodic_spectrum_certifies_every_edge(monkeypatch):
    # one eigenvector of E_4(0) tilted towards another pair leaves a residual
    # of 1e-6 and refuses the edges
    s = C.periodize(C.constant_seq(0.5), 4)
    exact = np.linalg.eigh
    F.periodic_spectrum(s, 4)

    def tilted(H):
        lam, vecs = exact(H)
        # the symmetrized transform has eigenvalues -2 cot(beta/2), beta the
        # angle of z from the pole: u_0 + d u_m has residual d |z_m - z_0|
        z = np.exp(2j * np.arctan2(1.0, -lam[0] / 2))
        m = np.argmax(np.abs(z - z[0]))
        vecs[0, :, 0] += 1e-6 / abs(z[m] - z[0]) * vecs[0, :, m]
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eigh", tilted)
    with pytest.raises(NumericalInstabilityError, match="1.00e-06"):
        F.periodic_spectrum(s, 4)


def _random_table(seed, q, radius):
    rng = np.random.default_rng(seed)
    return C.periodic_table_seq(radius * rng.random(q) * np.exp(2j * math.pi * rng.random(q)))


def mp_band_edges(seq, q, starts, levels, dps=30, iters=2):
    """Roots of Delta(theta) = level at dps digits, by Newton from each start.

    The monodromy trace is formed in mpmath as a Laurent polynomial in z
    (the GZ steps of ``transfer.gz_step``, degrees -q/2..q/2); it is real on
    the circle, so c_{-k} = conj(c_k) and Delta = 2 Re sum_{k >= 0} c'_k z^k
    with c'_0 = c_0 / 2.
    """
    h = q // 2
    with mpmath.workdps(dps):
        zero = np.array([mpmath.mpc(0)] * (q + 1), dtype=object)
        m00, m01, m10, m11 = zero.copy(), zero.copy(), zero.copy(), zero.copy()
        m00[h] = m11[h] = mpmath.mpc(1)

        def up(p):  # z * p
            return np.concatenate([zero[:1], p[:-1]])

        def down(p):  # p / z
            return np.concatenate([p[1:], zero[:1]])

        for n in range(q):
            a = mpmath.mpc(seq(n))
            r = 1 / mpmath.sqrt(1 - abs(a) ** 2)
            ar, acr = a * r, a.conjugate() * r
            # arrays on the left: mpmath would convert a whole array operand
            if n % 2 == 0:
                m00, m01, m10, m11 = (m10 * r - m00 * ar, m11 * r - m01 * ar,
                                      m00 * r - m10 * acr, m01 * r - m11 * acr)
            else:
                m00, m01, m10, m11 = (up(m10) * r - m00 * acr, up(m11) * r - m01 * acr,
                                      down(m00) * r - m10 * ar, down(m01) * r - m11 * ar)
        upper = list(m00[h:] + m11[h:])
        upper[0] /= 2
        upper = upper[::-1]
        edges = []
        for th, level in zip(starts, levels):
            th = mpmath.mpf(float(th))
            for _ in range(iters):
                w = mpmath.expj(th)
                p, dp = mpmath.polyval(upper, w, derivative=True)
                th -= (2 * p.real - level) / (2 * (1j * w * dp).real)
            edges.append(float(th % (2 * mpmath.pi)))
    return np.array(edges)


def assert_edges_match_30_digits(seq, q):
    arcs = F.periodic_spectrum(seq, q)
    assert arcs.arcs.shape == (q, 2)
    starts = np.linalg.eigvals(F.floquet_matrices(seq, q, [0.0, math.pi / q])).ravel()
    want = mp_band_edges(seq, q, np.angle(starts) % TWO_PI, np.repeat([2.0, -2.0], q))
    got = arcs.arcs.ravel() % TWO_PI
    dist = np.abs((got[:, None] - want[None, :] + math.pi) % TWO_PI - math.pi)
    assert dist.min(axis=1).max() < 1e-9
    assert dist.min(axis=0).max() < 1e-9


def test_long_table_with_large_monodromy_is_accepted():
    # refused by an imaginary-trace tolerance relative to |tr| alone
    # (imaginary part 4.0e-10 at a trace of order 1, entries of order 1e1)
    assert_edges_match_30_digits(_random_table(0, 128, 0.5), 128)


def test_discriminant_tolerance_scales_with_the_product(monkeypatch):
    # trace 2 with an entry of 1e6: the tolerance is 1e-10 * 1e6
    size = 1e6

    def fake(imag):
        def monodromy(seq, q, z):
            m = np.array([[1.0 + 1j * imag, size], [0.0, 1.0]])
            return np.broadcast_to(m, np.shape(z) + (2, 2))
        return monodromy

    monkeypatch.setattr(F, "monodromy", fake(1e-6 * size))
    with pytest.raises(NumericalInstabilityError, match="imaginary part 1.00e\\+00"):
        F.discriminant(C.constant_seq(0.2), 2, np.linspace(0.0, 1.0, 3))
    monkeypatch.setattr(F, "monodromy", fake(1e-11 * size))
    np.testing.assert_array_equal(F.discriminant(C.constant_seq(0.2), 2, [0.1, 0.2]),
                                  [2.0, 2.0])


@pytest.mark.parametrize("seed", [3, 4])
def test_strong_long_tables_are_accepted(seed):
    # refused by a discriminant certificate of the edges (imaginary traces
    # 2.5e-8 and 1.5e-5), although every eigenpair residual is ~1e-14
    assert_edges_match_30_digits(_random_table(seed, 64, 0.95), 64)


def mp_monodromy_trace(seq, q, theta, dps=60):
    """tr Phi_q(z) = z^(-q/2) tr T_q(z) at z = e^(i theta), to dps digits, from
    the Szego steps (1/rho) [[z, -conj(a)], [-z a, 1]]."""
    with mpmath.workdps(dps):
        z = mpmath.expj(mpmath.mpf(float(theta)))
        t11, t12, t21, t22 = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
        for n in range(q):
            a = mpmath.mpc(seq(n))
            r, za = 1 / mpmath.sqrt(1 - abs(a) ** 2), z * a
            t11, t12, t21, t22 = (r * (z * t11 - a.conjugate() * t21),
                                  r * (z * t12 - a.conjugate() * t22),
                                  r * (t21 - za * t11), r * (t22 - za * t12))
        return (t11 + t22) * z ** (-(q // 2))


def test_bound_check_judges_the_trace_relative_to_the_product():
    # q = 128, radius 0.9: the products reach 1e16, and an absolute 1e-8 on
    # Im tr refused all but 1 of the 116 band midpoints
    seq, q = _random_table(0, 128, 0.9), 128
    accepted = 0
    for th in F.periodic_spectrum(seq, q).arcs.mean(axis=1):
        try:
            out = F.monodromy_bound_check(seq, q, cmath.exp(1j * th))
        except (NumericalInstabilityError, ValueError):
            continue
        tr = mp_monodromy_trace(seq, q, th)
        assert abs(tr.imag) < 1e-40 and -2 < tr.real < 2  # inside its band
        assert out["holds"]
        accepted += 1
    assert accepted >= 40


@st.composite
def pole_problems(draw):
    """A random table whose period divides an even q <= 64, and up to 16
    random k inside (0, pi/q)."""
    q = 2 * draw(st.integers(1, 32))
    period = draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
    values = draw(st.lists(disk95, min_size=period, max_size=period))
    ks = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=16))
    return C.periodic_table_seq(values), q, np.array(ks) * (math.pi / q)


@settings(max_examples=60, deadline=None)
@given(problem=pole_problems())
def test_each_pole_keeps_its_margin_from_the_spectrum_at_its_interval_centre(problem):
    # the widest of the q + 1 gaps of [-1, cosines, 1] is at least 2/(q + 1)
    # wide and cos is 1-Lipschitz, so the pole sits at least 1/(q + 1) in
    # angle from every eigenvalue of E_q at the centre, and from its conjugate;
    # the band edges of periodic_spectrum take their poles at k = 0 and pi/q
    seq, q, ks = problem
    with mock.patch.object(F, "_cayley_eigenpairs", wraps=F._cayley_eigenpairs) as solve:
        F.periodic_spectrum(seq, q)
    poles = np.concatenate([F._poles(seq, q, ks), solve.call_args.args[1]])
    width = math.pi / q / F._POLE_INTERVALS
    centres = (np.minimum(ks // width, F._POLE_INTERVALS - 1) + 0.5) * width
    w = np.linalg.eigvals(F.floquet_matrices(seq, q, np.append(centres, [0.0, math.pi / q])))
    w = np.concatenate([w, w.conj()], axis=-1)
    assert np.all(np.abs(np.abs(poles) - 1.0) <= 1e-15)
    margin = np.abs(np.angle(w * poles[:, None].conj()))
    assert margin.min() >= 1.0 / (q + 1) - 1e-12
