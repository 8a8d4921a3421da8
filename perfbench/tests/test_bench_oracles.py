"""Self-tests of the benchmark's oracles on closed forms and brute force."""

import json
import math

import numpy as np
import pytest

import oracles as O

TWO_PI = 2.0 * math.pi
# approx_report.json levels written by cmvlab at commit de1ca58 for the README
# approx config: the same measure at every level, although stages
# q = 4, 8, 16 open gaps narrower than the 4096-point scan grid
DEFECT_APPROX_LEVELS = [
    {"q": 2, "sigma2q_minus_Z": 0.0, "sigma_measure": 5.8825156224789685},
    {"q": 4, "sigma2q_minus_Z": 0.0, "sigma_measure": 5.8825156224789685},
    {"q": 8, "sigma2q_minus_Z": 0.0, "sigma_measure": 5.8825156224789685},
    {"q": 16, "sigma2q_minus_Z": 0.0, "sigma_measure": 5.8825156224789685},
]
README_FAMILY = {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 3,
                 "decay": {"form": "geometric", "base": 4.0}}


def _unit(t):
    return complex(math.cos(t), math.sin(t))


def _brute_log_norm(alphas, z):
    m = np.eye(2, dtype=complex)
    log_scale = 0.0
    for a in alphas:
        m = O.szego_matrix(complex(a), z) @ m
        s = np.abs(m).max()
        m /= s
        log_scale += math.log(s)
    return log_scale + math.log(np.linalg.norm(m, 2))


# -- Lyapunov ----------------------------------------------------------------

def test_free_cocycle_has_zero_exponent():
    for t in np.linspace(0.0, TWO_PI, 7):
        lyap, bias = O.constant_lyapunov(0j, _unit(t), 1000)
        assert lyap == 0.0
        assert 0.0 < bias <= math.log(2.0) / 1000 + 1e-15


def test_constant_exponent_brackets_brute_force_products():
    rng = np.random.default_rng(0)
    n = 3000
    for _ in range(6):
        a = 0.7 * rng.random() * _unit(TWO_PI * rng.random())
        z = _unit(TWO_PI * rng.random())
        lyap, bias = O.constant_lyapunov(a, z, n)
        est = _brute_log_norm([a] * n, z) / n
        assert -1e-12 <= est - lyap <= bias + 1e-12


def test_quasiperiodic_gauge_identity():
    lam, beta, theta, n = 0.6, 0.381966, 0.27, 2000
    alphas = [lam * _unit(TWO_PI * (k * beta + theta)) for k in range(n)]
    for t in (0.3, 1.7, 4.0):
        z = _unit(t)
        a = lam * _unit(TWO_PI * (theta - beta))
        zz = z * _unit(TWO_PI * beta)
        assert _brute_log_norm(alphas, z) == pytest.approx(_brute_log_norm([a] * n, zz),
                                                           abs=1e-9)
        lyap, bias = O.quasiperiodic_lyapunov(lam, beta, theta, z, n)
        assert -1e-12 <= _brute_log_norm(alphas, z) / n - lyap <= bias + 1e-12


# -- bands -------------------------------------------------------------------

def test_free_discriminant_and_full_band():
    q = 6
    th = np.linspace(0.0, TWO_PI, 50)
    assert np.allclose(O.discriminant(np.zeros(q), th), 2.0 * np.cos(q * th / 2.0))
    assert O.band_set(np.zeros(q)) == [(0.0, TWO_PI)]


def test_constant_coefficient_band_is_the_geronimus_arc():
    a = 0.3 + 0.2j
    gap = 2.0 * math.asin(abs(a))
    (arc,) = O.band_set(np.array([a, a]))
    assert arc == pytest.approx((gap, TWO_PI - gap), abs=1e-12)


def test_band_edges_solve_delta_equals_plus_minus_two():
    rng = np.random.default_rng(1)
    alpha = 0.5 * rng.random(8) * np.exp(2j * math.pi * rng.random(8))
    d = O.discriminant(alpha, O.band_edges(alpha))
    assert np.allclose(np.abs(d), 2.0, atol=1e-9)


def test_band_set_matches_a_fine_discriminant_scan():
    rng = np.random.default_rng(2)
    alpha = 0.5 * rng.random(8) * np.exp(2j * math.pi * rng.random(8))
    n = 400_000
    th = (np.arange(n) + 0.5) * (TWO_PI / n)
    scan = np.count_nonzero(np.abs(O.discriminant(alpha, th)) <= 2.0) * (TWO_PI / n)
    assert O.arcs_measure(O.band_set(alpha)) == pytest.approx(scan, abs=2 * 16 * TWO_PI / n)


def test_hausdorff_of_shifted_arcs():
    a = [(0.5, 1.0), (2.0, 3.0)]
    assert O.hausdorff(a, a) == 0.0
    assert O.hausdorff(a, [(0.5, 1.0), (2.0, 3.001)]) == pytest.approx(0.001)
    assert O.hausdorff(a, [(0.5, 3.0)]) == pytest.approx(0.5)


# -- the known narrow-gap defect ---------------------------------------------

def _approx_dir(tmp_path, levels):
    (tmp_path / "approx_report.json").write_text(json.dumps({"levels": levels}))
    return str(tmp_path)


def test_oracle_flags_the_narrow_gap_approx_report(tmp_path):
    cfg = {"family": README_FAMILY}
    checks = O.check_approx("approx", cfg, _approx_dir(tmp_path, DEFECT_APPROX_LEVELS))
    by_q = {c.name: c for c in checks}
    assert by_q["q2_sigma_measure"].ok
    for q in (4, 8, 16):
        c = by_q[f"q{q}_sigma_measure"]
        assert not c.ok
        assert c.known_defect
        assert c.err == pytest.approx(1.57e-3, abs=1e-5)


def test_correct_approx_report_passes(tmp_path):
    stages = O.pt_family_stages(README_FAMILY)
    levels = [{"q": len(s), "sigma_measure": O.arcs_measure(O.band_set(s))} for s in stages]
    checks = O.check_approx("approx", {"family": README_FAMILY}, _approx_dir(tmp_path, levels))
    assert all(c.ok for c in checks)
    measures = [lv["sigma_measure"] for lv in levels]
    assert measures[0] > measures[1] > measures[2] > measures[3]


def test_error_beyond_missed_gaps_is_not_the_known_defect(tmp_path):
    levels = [dict(lv, sigma_measure=lv["sigma_measure"] + 1e-2) for lv in DEFECT_APPROX_LEVELS]
    checks = O.check_approx("approx", {"family": README_FAMILY}, _approx_dir(tmp_path, levels))
    assert not any(c.ok or c.known_defect for c in checks)


def test_band_arcs_missing_a_subgrid_gap_are_triaged():
    stage = O.pt_family_stages(README_FAMILY)[1]  # q = 4, gaps of width 7.9e-4
    ref = O.band_set(stage)
    narrow = O.subgrid_gaps(ref)
    assert narrow
    filled = O.fill_gaps(ref, narrow)
    checks = O._band_arc_checks("bands", stage, filled)
    assert not checks[0].ok and checks[0].known_defect
    shifted = [(lo, hi + 1e-6) if i == 0 else (lo, hi) for i, (lo, hi) in enumerate(ref)]
    checks = O._band_arc_checks("bands", stage, shifted)
    assert not checks[0].ok and not checks[0].known_defect
    assert all(c.ok for c in O._band_arc_checks("bands", stage, ref))


# -- windows -----------------------------------------------------------------

def test_identity_coin_walk_moves_right():
    out = O.walk_distributions(np.zeros(4, dtype=complex), 0, "+", [0, 3, 10], J=5)
    for t in (0, 3, 10):
        dist, surv = out[t]
        assert dist == {t: (1.0, 0.0)}
        assert surv == (1.0 if t <= 5 else 0.0)


def test_walk_conserves_probability():
    rng = np.random.default_rng(3)
    g = 0.8 * rng.random(4) * np.exp(2j * math.pi * rng.random(4))
    dist, _ = O.walk_distributions(g, 0, "-", [200], J=5)[200]
    assert sum(p + m for p, m in dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_free_halfline_caratheodory_function_is_one():
    for lo, hi, loc in ((-1, 62, 0), (-65, -2, 63)):
        res = O.HalflineResolvent(O.halfline_window(lambda m: 0j, lo, hi), loc)
        for z in (0.5, 0.3j, -0.4 + 0.2j):
            val, err = res.value(z)
            assert abs(val - 1.0) <= err + 1e-12


def test_halfline_window_is_unitary_with_positive_caratheodory_part():
    rng = np.random.default_rng(4)
    alpha = 0.5 * rng.random(4) * np.exp(2j * math.pi * rng.random(4))
    E = O.halfline_window(lambda m: alpha[m % 4], -1, 126)
    assert np.abs(E @ E.conj().T - np.eye(128)).max() < 1e-13
    res = O.HalflineResolvent(E, 0)
    for t in np.linspace(0.0, TWO_PI, 9):
        assert res.value(0.9 * _unit(t))[0].real > 0.0
