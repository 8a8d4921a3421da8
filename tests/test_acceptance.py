"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are fixed here, not tuned at runtime.
"""

import cmath
import math

import numpy as np
import pytest

from cmvlab import coefficients as C
from cmvlab import floquet as F
from cmvlab import operator as O
from cmvlab import qwalk as Q
from cmvlab import transfer as T
from cmvlab import weyl as W
from cmvlab.errors import DegenerateBandError
from cmvlab.spectral_sets import TWO_PI, CircleArcSet, spectral_variation_check
from kgrid_oracle import band_arcs_from_kgrid


def report(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rand_seq(rng, q, radius=0.6):
    vals = radius * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
    return C.periodic_table_seq(vals)


def unit(theta):
    return cmath.exp(1j * theta)


def geo_decay(base_amp, q0):
    return lambda n: base_amp * 4.0 ** (-(q0 * 2 ** (n + 1)))


def test_01_structural_fidelity():
    rng = np.random.default_rng(101)
    worst_row = 0.0
    worst_prod = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 7))
        s = rand_seq(rng, q, radius=0.85 * rng.random())
        dim = 16
        e = O.assemble_cmv(s, 0, dim)
        L, M = O.assemble_lm(s, 0, dim)
        worst_prod = max(
            worst_prod, float(np.max(np.abs(e - L @ M)))
        )
        a = lambda m: complex(s(m))
        r = lambda m: s.rho(m)
        for g in range(2, dim - 2):
            row = np.zeros(dim, dtype=complex)
            if g % 2 == 0:
                row[[g - 1, g, g + 1, g + 2]] = [
                    a(g).conjugate() * r(g - 1),
                    -a(g).conjugate() * a(g - 1),
                    a(g + 1).conjugate() * r(g),
                    r(g + 1) * r(g),
                ]
            else:
                row[[g - 2, g - 1, g, g + 1]] = [
                    r(g - 1) * r(g - 2),
                    -r(g - 1) * a(g - 2),
                    -a(g).conjugate() * a(g - 1),
                    -r(g) * a(g - 1),
                ]
            worst_row = max(worst_row, float(np.max(np.abs(e[g] - row))))
    ok = worst_row < 1e-14 and worst_prod < 1e-14
    report(1, "structural fidelity",
           ok, f"row dev {worst_row:.2e}, |E-LM| {worst_prod:.2e}")


def test_02_cocycle_identities():
    rng = np.random.default_rng(102)
    worst = {"detS": 0.0, "detY": 0.0, "detPhi": 0.0, "sieve": 0.0}
    for _ in range(1000):
        alpha = 0.9 * rng.random() * np.exp(2j * math.pi * rng.random())
        z = unit(TWO_PI * rng.random())
        worst["detS"] = max(
            worst["detS"], abs(abs(np.linalg.det(T.szego(alpha, z))) - 1.0)
        )
        lhs = T.szego(alpha, z) @ T.szego(0.0, z)
        worst["sieve"] = max(
            worst["sieve"], float(np.max(np.abs(lhs - T.szego(alpha, z * z))))
        )
        q = int(rng.choice([2, 4]))
        s = rand_seq(rng, q, radius=0.7)
        n = int(rng.integers(-6, 7))
        worst["detY"] = max(
            worst["detY"], abs(np.linalg.det(T.gz_step(s, n, z)) + 1.0)
        )
        worst["detPhi"] = max(
            worst["detPhi"], abs(np.linalg.det(T.monodromy(s, q, z)) - 1.0)
        )
    ok = all(v < 1e-12 for v in worst.values())
    report(2, "cocycle identities", ok,
           ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_03_band_derivative_formula():
    rng = np.random.default_rng(103)
    h = 1e-5
    worst = 0.0
    evaluated = 0
    skipped = 0
    for q in (2, 4, 8):
        seqs = [C.periodize(C.constant_seq(0.5), q), rand_seq(rng, q, 0.5)]
        for s in seqs:
            for j in range(16):
                k = (j + 0.5) * (math.pi / q) / 16
                try:
                    _, z, u = next(F.band_stacks(s, q, [k - h, k, k + h]))
                except DegenerateBandError:
                    skipped += 1
                    continue
                minus, plus = z[0], z[2]
                dzs = F.band_derivative(s, q, k, u[1:2])[0]
                for w, dz in zip(z[1], dzs):
                    zp = plus[np.argmin(np.abs(plus - w))]
                    zm = minus[np.argmin(np.abs(minus - w))]
                    fd = (zp - zm) / (2 * h)
                    if abs(fd) < 1e-8:
                        continue
                    worst = max(worst, abs(dz - fd) / abs(fd))
                    evaluated += 1
    ok = worst < 1e-5 and evaluated > 200
    report(3, "band-derivative formula", ok,
           f"worst rel err {worst:.2e} over {evaluated} pairs, "
           f"{skipped} degenerate k skipped")


def test_04_monodromy_bound():
    rng = np.random.default_rng(104)
    violations = 0
    checked = 0
    margin = math.inf
    for _ in range(20):
        q = int(rng.choice([2, 4, 8]))
        s = rand_seq(rng, q, radius=0.5)
        done = 0
        attempts = 0
        while done < 50 and attempts < 2000:
            attempts += 1
            th = TWO_PI * rng.random()
            if not -2 + 1e-9 < F.discriminant(s, q, th) < 2 - 1e-9:
                continue
            try:
                out = F.monodromy_bound_check(s, q, unit(th))
            except DegenerateBandError:
                continue
            done += 1
            checked += 1
            margin = min(margin, out["rhs"] - out["lhs"])
            if not out["holds"]:
                violations += 1
    ok = violations == 0 and checked == 1000
    report(4, "monodromy norm bound", ok,
           f"{checked} points, {violations} violations, min margin {margin:.3f}")


def test_05_discriminant_eigen_consistency():
    rng = np.random.default_rng(105)
    worst = 0.0
    for q in (2, 4):
        for _ in range(5):
            s = rand_seq(rng, q, radius=0.6)
            disc = F.periodic_spectrum(s, q)
            kgrid = band_arcs_from_kgrid(s, q, 256)
            worst = max(worst, disc.hausdorff(kgrid))
    ok = worst < TWO_PI / 1024
    report(5, "discriminant vs eigenvalue bands", ok,
           f"worst Hausdorff {worst:.2e} < {TWO_PI / 1024:.2e}")


def test_06_spectral_variation():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(100):
        q1, q2 = (int(rng.choice([2, 4, 8])) for _ in range(2))
        u = O.assemble_cmv(rand_seq(rng, q1, 0.7), 0, 64)
        v = O.assemble_cmv(rand_seq(rng, q2, 0.7), 0, 64)
        if not spectral_variation_check(u, v)["holds"]:
            violations += 1
    report(6, "spectral variation bound", violations == 0,
           f"100 pairs at dim 64, {violations} violations")


def test_07_sieving_spectrum():
    rng = np.random.default_rng(107)
    worst_h = 0.0
    worst_res = 0.0
    for i in range(10):
        q = 2 if i % 2 == 0 else 4
        s = rand_seq(rng, q, radius=0.6)
        base = F.periodic_spectrum(s, q)
        hat = F.periodic_spectrum(O.sieve(s), 2 * q)
        worst_h = max(worst_h, hat.hausdorff(base.preimage_double()))
        res = O.verify_sieve_square(s, 8 * q)
        worst_res = max(worst_res, max(res.values()))
    ok = worst_h < 1e-8 and worst_res < O._SIEVE_TOL
    report(7, "sieving: doubled spectrum and invariant split", ok,
           f"spectrum dev {worst_h:.2e}, square residual {worst_res:.2e}")


def test_08_lyapunov_sieving():
    # Per-site growth rates: the sieved cocycle spends two steps per original
    # step, so the exact identity reads 2 * L_sieved(z) = L(z^2).
    rng = np.random.default_rng(108)
    worst = 0.0
    seqs = [C.constant_seq(0.5), rand_seq(rng, 2, 0.6), rand_seq(rng, 4, 0.6)]
    zs = np.exp(1j * (np.arange(20) + 0.5) * TWO_PI / 20)
    for i, s in enumerate(seqs):
        z = zs[i::len(seqs)]
        lhat = T.lyapunov(O.sieve(s), z)
        lsq = T.lyapunov(s, z * z)
        worst = max(worst, float(np.max(np.abs(2.0 * lhat - lsq))))
    report(8, "Lyapunov sieving identity", worst < 2e-3,
           f"worst |2*L_sieved - L(z^2)| = {worst:.2e}")


def _zero_set_estimate(seq, grid_size=8192, eps_L=1e-2, n_steps=100_000):
    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    vals = T.lyapunov(seq, np.exp(1j * thetas), n_steps)
    return T.arcs_from_grid(thetas, vals, eps_L)


def test_09_periodic_approximation_surrogate():
    families = {
        "constant-0.5": C.pastur_tkachenko_family(0.5, q0=2, levels=3),
        "default-pt": C.pastur_tkachenko_family(0.1, q0=2, levels=3),
    }
    details = []
    ok = True
    for name, fam in families.items():
        z_est = _zero_set_estimate(fam.limit)
        diffs = []
        for qn in fam.periods():
            per = C.periodize(fam.limit, 2 * qn)
            sigma = F.periodic_spectrum(per, 2 * qn)
            diffs.append(sigma.diff_measure(z_est))
        nonincreasing = all(b <= a + 1e-9 for a, b in zip(diffs, diffs[1:]))
        ok = ok and diffs[-1] < 0.05 and nonincreasing
        details.append(f"{name}: final {diffs[-1]:.3e}, "
                       f"nonincreasing {nonincreasing}")
    report(9, "periodic approximation of the zero set", ok, "; ".join(details))


def test_10_positive_measure_surrogate():
    fam = C.pastur_tkachenko_family(0.1, q0=2, levels=3)
    periods = fam.periods()
    measures = [
        F.periodic_spectrum(s, q).measure()
        for s, q in zip(fam.stages, periods)
    ]
    verdict = C.lp_sum_criterion(fam, 0, measures[0])

    ok = verdict["holds"]
    telescoped = measures[0]
    details = [f"lp_sum lhs {verdict['lhs']:.3e} < rhs {verdict['rhs']:.3f}"]
    for n in range(1, len(periods)):
        delta = F.norm_diff(fam.stages[n], fam.stages[n - 1], 4 * periods[n])
        telescoped -= 2 * periods[n] * 2.0 * math.asin(min(delta, 2.0) / 2.0)
        if not (telescoped > 0 and measures[n] >= telescoped - 1e-6):
            ok = False
        details.append(f"level {n}: Leb {measures[n]:.4f} >= bound "
                       f"{telescoped:.4f} > 0")
    report(10, "positive-measure telescoping bound", ok, "; ".join(details))


def test_11_weyl_free_oracle():
    free = C.constant_seq(0.0)
    worst = 0.0
    rng = np.random.default_rng(111)
    for _ in range(64):
        r = 0.95 * math.sqrt(rng.random())
        z = r * unit(TWO_PI * rng.random())
        worst = max(worst, abs(W.m_plus(free, 0, z, dim=512) - 1.0))
        worst = max(worst, abs(W.m_minus(free, 0, z, dim=512) + 1.0))
    defect = W.reflectionless_defect(free, 0, CircleArcSet.full_circle(),
                                     0.99, samples=16, dim=2048)
    ok = worst < 1e-10 and defect < 1e-8
    report(11, "Weyl free-case oracle", ok,
           f"worst m-dev {worst:.2e}, defect at r=0.99: {defect:.2e}")


def test_12_quantum_walk_scattering():
    state = Q.WalkState.delta(0, "+")
    coins = Q.hadamard_coins()
    surv = {t: Q.evolve(state, coins, t).survival(5) for t in (32, 128, 512)}
    final = Q.evolve(state, coins, 512)
    norm_drift = abs(final.norm2() - 1.0)
    ok = (surv[32] > surv[128] > surv[512] and surv[512] < 0.2
          and norm_drift < 1e-7)
    report(12, "quantum-walk scattering surrogate", ok,
           f"survival {surv[32]:.4f} > {surv[128]:.4f} > {surv[512]:.4f}, "
           f"norm drift {norm_drift:.1e}")
