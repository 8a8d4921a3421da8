"""Independent oracles for the outputs of the benchmark's CLI jobs.

Nothing here imports cmvlab: every reference value is rebuilt from the
operator-theoretic definitions with numpy/scipy, and every tolerance is
derived from the method that produced the checked number (a truncation or
bias bound, a bisection tolerance, or a rounding bound), never from what a
particular commit happens to reach.

Each ``check_*`` function reads one job's output directory and returns a list
of ``Check`` records; a job fails when any of its checks fails.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi

# cmvlab's documented numerical contract for band edges: bisection on the
# discriminant down to brackets of width 1e-10 (edge error <= 5e-11), after
# a scan over a 4096-point angle grid.
BISECTION_TOL = 1e-10
DEFAULT_RESOLUTION = 4096
# Edge eigenvalues are accurate to ~q eps; two edges closer than this bound a
# closed gap (a tangential touch of |Delta| = 2).
CLOSED_GAP = 1e-12


@dataclass(frozen=True)
class Check:
    """One oracle comparison: ``err`` must not exceed ``tol``.

    ``known_defect`` marks a failure that is fully explained by the
    documented narrow-gap defect (band gaps narrower than the scan grid are
    missed).  Such a check still fails and its job still counts as failed.
    """

    job: str
    name: str
    err: float
    tol: float
    known_defect: bool = False

    @property
    def ok(self) -> bool:
        return self.err <= self.tol

    @property
    def ratio(self) -> float:
        return self.err / self.tol


class OutputError(ValueError):
    """An output file is missing or does not have the documented layout."""


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def _read_json(out_dir: str, name: str) -> dict:
    path = os.path.join(out_dir, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"cannot read {name}: {exc}") from exc


def _read_csv(out_dir: str, name: str) -> list[dict]:
    path = os.path.join(out_dir, name)
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        raise OutputError(f"cannot read {name}: {exc}") from exc
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _table(spec: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in spec["values"]])


# ---------------------------------------------------------------------------
# Szego transfer matrices and the Lyapunov exponent
# ---------------------------------------------------------------------------

def szego_matrix(a: complex, z: complex) -> np.ndarray:
    """(1/rho) [[z, -conj(a)], [-z a, 1]]."""
    rho = math.sqrt(1.0 - abs(a) ** 2)
    return np.array([[z, -a.conjugate()], [-z * a, 1.0]], dtype=complex) / rho


def constant_lyapunov(a: complex, z: complex, n_steps: int) -> tuple[float, float]:
    """Exponent of the constant-coefficient cocycle and its finite-N bias bound.

    With the complex Schur form A = Q [[m1, t], [0, m2]] Q*, the power A^N has
    norm between rho^N and rho^N (2 + N |t| / rho), rho = max |m_i|.  So the
    N-step estimate log ||A^N|| / N exceeds log rho by at most
    log(2 + N |t| / rho) / N, and never falls below it.
    """
    A = szego_matrix(a, z)
    T, _ = scipy.linalg.schur(A, output="complex")
    rho = max(abs(T[0, 0]), abs(T[1, 1]))
    lyap = max(math.log(rho), 0.0)
    bias = math.log(2.0 + n_steps * abs(T[0, 1]) / rho) / n_steps
    return lyap, bias


def quasiperiodic_lyapunov(lam: float, beta: float, theta: float, z: complex,
                           n_steps: int) -> tuple[float, float]:
    """Exponent of alpha_n = lam exp(2 pi i (n beta + theta)) at z.

    The diagonal gauge G_n = diag(e^{i n phi}, e^{i n (phi - w)}), w = 2 pi beta,
    conjugates every step to e^{i psi} S(lam e^{2 pi i (theta - beta)}, z e^{i w}),
    so products of the quasiperiodic cocycle have exactly the norms of powers
    of one constant Szego matrix.
    """
    a = lam * complex(math.cos(TWO_PI * (theta - beta)), math.sin(TWO_PI * (theta - beta)))
    zz = z * complex(math.cos(TWO_PI * beta), math.sin(TWO_PI * beta))
    return constant_lyapunov(a, zz, n_steps)


def check_lyapunov(job: str, config: dict, out_dir: str) -> list[Check]:
    spec = config["sequence"]
    lam, beta, theta = spec["amplitude"], spec["frequency"], spec["phase"]
    n_steps, grid, eps_L = config["n_steps"], config["grid_size"], config["epsilon_L"]
    rep = _read_json(out_dir, "lyapunov.json")
    zero = _read_json(out_dir, "zero_set.json")
    thetas = np.asarray(rep["theta"], dtype=float)
    vals = np.asarray(rep["L"], dtype=float)
    if thetas.shape != (grid,) or vals.shape != (grid,) or rep["N"] != n_steps:
        raise OutputError("lyapunov.json does not hold one value per grid point")
    grid_err = float(np.max(np.abs(thetas - np.arange(grid) * (TWO_PI / grid))))
    # rounding slack: the orbit phases n*beta (|n| <= N) and N products of
    # 2x2 matrices of condition (1 + lam) / (1 - lam)
    slack = 16.0 * (n_steps + 1) * EPS * (1.0 + lam) / (1.0 - lam)
    worst = 0.0
    mismatches = 0
    for t, val in zip(thetas, vals):
        ref, bias = quasiperiodic_lyapunov(lam, beta, theta, complex(math.cos(t), math.sin(t)),
                                           n_steps)
        tol = bias + slack
        worst = max(worst, abs(val - ref) / tol)
        # the zero-set membership is certain only away from the threshold
        if ref + tol < eps_L or ref - tol >= eps_L:
            if (ref + tol < eps_L) != (_ang_dist(t, zero["arcs"]) <= 1e-12):
                mismatches += 1
    return [
        Check(job, "grid", grid_err, 4 * grid * EPS),
        Check(job, "L_vs_closed_form", worst, 1.0),
        Check(job, "zero_set_membership", float(mismatches), 0.5),
    ]


# ---------------------------------------------------------------------------
# periodic spectra: Floquet matrices, discriminant, band sets
# ---------------------------------------------------------------------------

def _theta_block(a: complex) -> np.ndarray:
    rho = math.sqrt(max(0.0, 1.0 - abs(a) ** 2))
    return np.array([[a.conjugate(), rho], [rho, -a]], dtype=complex)


def floquet_matrix(alpha: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """E_q(k) = L M(k) for one period of even length q, and dE/dk.

    Bloch vectors u_{n+q} = e^{ikq} u_n fold the block of alpha_{q-1} on
    (q-1, q) into the corners of M: M[q-1, 0] = rho e^{ikq} and
    M[0, q-1] = rho e^{-ikq}.
    """
    q = len(alpha)
    L = np.zeros((q, q), dtype=complex)
    M = np.zeros((q, q), dtype=complex)
    for n in range(0, q, 2):
        L[n:n + 2, n:n + 2] = _theta_block(complex(alpha[n]))
    for n in range(1, q - 1, 2):
        M[n:n + 2, n:n + 2] = _theta_block(complex(alpha[n]))
    a = complex(alpha[q - 1])
    rho = math.sqrt(1.0 - abs(a) ** 2)
    ph = complex(math.cos(k * q), math.sin(k * q))
    M[q - 1, q - 1] = a.conjugate()
    M[0, 0] = -a
    M[q - 1, 0] = rho * ph
    M[0, q - 1] = rho * ph.conjugate()
    dM = np.zeros((q, q), dtype=complex)
    dM[q - 1, 0] = 1j * q * rho * ph
    dM[0, q - 1] = -1j * q * rho * ph.conjugate()
    return L @ M, L @ dM


def discriminant(alpha: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Delta(z) = z^{-q/2} tr(S(alpha_{q-1}, z) ... S(alpha_0, z)), real on |z| = 1."""
    z = np.exp(1j * np.asarray(angles, dtype=float))
    a11 = np.ones_like(z)
    a12 = np.zeros_like(z)
    a21 = np.zeros_like(z)
    a22 = np.ones_like(z)
    for a in alpha:
        a = complex(a)
        rho = math.sqrt(1.0 - abs(a) ** 2)
        s11, s12, s21 = z / rho, -a.conjugate() / rho, -z * a / rho
        s22 = 1.0 / rho
        a11, a12, a21, a22 = (s11 * a11 + s12 * a21, s11 * a12 + s12 * a22,
                              s21 * a11 + s22 * a21, s21 * a12 + s22 * a22)
    q = len(alpha)
    return ((a11 + a22) * z ** (-(q // 2))).real


def band_edges(alpha: np.ndarray) -> np.ndarray:
    """Sorted angles of the eigenvalues of E_q(0) and E_q(pi/q): Delta = +-2."""
    q = len(alpha)
    w = np.concatenate([np.linalg.eigvals(floquet_matrix(alpha, 0.0)[0]),
                        np.linalg.eigvals(floquet_matrix(alpha, math.pi / q)[0])])
    return np.sort(np.angle(w) % TWO_PI)


def band_set(alpha: np.ndarray) -> list[tuple[float, float]]:
    """Spectrum {|Delta| <= 2} as sorted disjoint arcs; the last may wrap past 2 pi.

    The 2q sorted edges bound q bands and q gaps that alternate around the
    circle (a closed gap has two equal edges).  Which parity of cells is band
    is read from the sign of |Delta| - 2 at the midpoint of the widest cell,
    where it is far above rounding; bands meeting across a closed gap fuse.
    """
    edges = band_edges(alpha)
    m = len(edges)
    lo = edges
    hi = np.append(edges[1:], edges[0] + TWO_PI)
    widest = int(np.argmax(hi - lo))
    inside = abs(discriminant(alpha, [0.5 * (lo[widest] + hi[widest])])[0]) <= 2.0
    phase = widest % 2 if inside else (widest + 1) % 2
    fused: list[list[float]] = []
    for i in range(phase, m, 2):
        if fused and lo[i] - fused[-1][1] <= CLOSED_GAP:
            fused[-1][1] = hi[i]
        else:
            fused.append([lo[i], hi[i]])
    if len(fused) > 1 and fused[0][0] + TWO_PI - fused[-1][1] <= CLOSED_GAP:
        first = fused.pop(0)
        fused[-1][1] = first[1] + TWO_PI
    if fused[-1][1] - fused[-1][0] >= TWO_PI - CLOSED_GAP:
        return [(0.0, TWO_PI)]
    out = []
    for a_lo, a_hi in fused:
        shift = TWO_PI * math.floor(a_lo / TWO_PI)
        out.append((float(a_lo - shift), float(a_hi - shift)))
    return sorted(out)


def arcs_measure(arcs) -> float:
    return float(sum(hi - lo for lo, hi in arcs))


def _gaps(arcs) -> list[tuple[float, float]]:
    """Complementary arcs of a sorted arc list (empty for the full circle)."""
    if not arcs or arcs_measure(arcs) >= TWO_PI:
        return [] if arcs else [(0.0, TWO_PI)]
    out = []
    for i, (_, hi) in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)][0] + (TWO_PI if i == len(arcs) - 1 else 0.0)
        out.append((hi, nxt))
    return out


def _ang_dist(x: float, arcs) -> float:
    best = math.pi
    for lo, hi in arcs:
        for shift in (-TWO_PI, 0.0, TWO_PI):
            t = x + shift
            if lo <= t <= hi:
                return 0.0
            best = min(best, abs(t - lo), abs(t - hi))
    return best


def _directed(a_arcs, b_arcs) -> float:
    # the distance to b is piecewise linear: its maxima over a sit at a's
    # endpoints or at midpoints of b's gaps
    probes = [x for arc in a_arcs for x in arc]
    probes += [0.5 * (lo + hi) for lo, hi in _gaps(b_arcs)
               if _ang_dist(0.5 * (lo + hi), a_arcs) == 0.0]
    return max((_ang_dist(x, b_arcs) for x in probes), default=0.0)


def hausdorff(a_arcs, b_arcs) -> float:
    """Hausdorff distance of two nonempty arc sets in the angular metric."""
    return max(_directed(a_arcs, b_arcs), _directed(b_arcs, a_arcs))


def subgrid_gaps(arcs, resolution: int = DEFAULT_RESOLUTION) -> list[tuple[float, float]]:
    """Gaps narrower than the scan-grid spacing 2 pi / resolution."""
    return [g for g in _gaps(arcs) if g[1] - g[0] < TWO_PI / resolution]


def fill_gaps(arcs, gaps) -> list[tuple[float, float]]:
    """The arc set with the given gaps added back as band."""
    pts = sorted(list(arcs) + list(gaps))
    merged: list[list[float]] = []
    for lo, hi in pts:
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(merged) > 1 and merged[-1][1] >= merged[0][0] + TWO_PI - 1e-15:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[1] + TWO_PI)
    if arcs_measure(merged) >= TWO_PI - 1e-12:
        return [(0.0, TWO_PI)]
    return [tuple(m) for m in merged]


def _band_arc_checks(job: str, alpha: np.ndarray, reported) -> list[Check]:
    """Band arcs and measure against the edge oracle, with defect triage."""
    q = len(alpha)
    ref = band_set(alpha)
    reported = [tuple(a) for a in reported]
    d_h = hausdorff(ref, reported)
    d_m = abs(arcs_measure(reported) - arcs_measure(ref))
    tol_h = BISECTION_TOL
    tol_m = 2 * q * BISECTION_TOL
    defect = False
    if d_h > tol_h:
        # missed gaps narrower than the scan grid are the known defect
        missed = [g for g in subgrid_gaps(ref) if _ang_dist(0.5 * (g[0] + g[1]), reported) == 0.0]
        defect = bool(missed) and hausdorff(fill_gaps(ref, missed), reported) <= tol_h
    return [
        Check(job, f"q{q}_arcs_hausdorff", d_h, tol_h, defect),
        Check(job, f"q{q}_measure", d_m, tol_m, defect and d_m > tol_m),
    ]


def check_bands(job: str, config: dict, out_dir: str) -> list[Check]:
    alpha = _table(config["sequence"])
    q = config["q"]
    alpha = np.resize(alpha, q)
    rows = _read_csv(out_dir, "bands.csv")
    arcs = _read_json(out_dir, "band_arcs.json")["arcs"]
    by_k: dict[float, list[dict]] = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append(r)
    if len(by_k) != config.get("k_points", 64) or any(len(v) != q for v in by_k.values()):
        raise OutputError("bands.csv does not hold q eigenvalues per k")
    z_err = dz_err = dz_tol = 0.0
    for k, group in by_k.items():
        E, dE = floquet_matrix(alpha, k)
        w, V = np.linalg.eig(E)
        order = np.argsort(np.angle(w) % TWO_PI)
        w, V = w[order], V[:, order]
        got = np.array([complex(r["re_z"], r["im_z"]) for r in sorted(group, key=lambda r: r["n"])])
        z_err = max(z_err, float(np.max(np.abs(got - w))))
        # first-order perturbation: dz/dk = u* dE u for unit eigenvectors of
        # the normal matrix E; eigenvector error ~ eps q / (eigenvalue gap)
        sep = np.abs(w[:, None] - w[None, :]) + np.eye(q) * 4.0
        for n, r in enumerate(sorted(group, key=lambda r: r["n"])):
            u = V[:, n] / np.linalg.norm(V[:, n])
            ref = complex(u.conj() @ dE @ u)
            dz_err = max(dz_err, abs(complex(r["re_dzdk"], r["im_dzdk"]) - ref))
            dz_tol = max(dz_tol, 4.0 * 64 * q * EPS * q * (1.0 + 2.0 / float(np.min(sep[n]))))
    return [
        Check(job, f"q{q}_eigenvalues", z_err, 2 * 64 * q * EPS),
        Check(job, f"q{q}_band_velocity", dz_err, dz_tol),
    ] + _band_arc_checks(job, alpha, arcs)


def pt_family_stages(spec: dict) -> list[np.ndarray]:
    """Stage tables of the pt_family: q_n = q0 2^n, increments amp_m cos(2 pi j / q_{m+1})."""
    base_amp, q0, levels = spec["base_amp"], spec["q0"], spec["levels"]
    decay = spec["decay"]
    if decay.get("form") != "geometric":
        raise OutputError("the oracle covers the geometric pt_family decay only")
    base = decay["base"]
    periods = [q0 * 2 ** n for n in range(levels + 1)]
    amps = [base_amp * base ** (-(q0 * 2 ** (n + 1))) for n in range(levels)]
    stages = []
    for n, qn in enumerate(periods):
        j = np.arange(qn)
        vals = np.full(qn, base_amp, dtype=float)
        for m in range(n):
            vals = vals + amps[m] * np.cos(TWO_PI * j / periods[m + 1])
        stages.append(vals.astype(complex))
    return stages


def approx_level_check(job: str, alpha: np.ndarray, reported_measure: float) -> Check:
    """sigma_measure of one stage against the edge oracle, with defect triage.

    Missing only gaps narrower than the scan grid overstates the measure by
    at most their total width; a discrepancy inside that window is the known
    defect.
    """
    q = len(alpha)
    ref = band_set(alpha)
    err = abs(reported_measure - arcs_measure(ref))
    tol = 2 * q * BISECTION_TOL
    excess = reported_measure - arcs_measure(ref)
    window = sum(hi - lo for lo, hi in subgrid_gaps(ref))
    defect = err > tol and 0.0 < excess <= window + tol
    return Check(job, f"q{q}_sigma_measure", err, tol, defect)


def check_approx(job: str, config: dict, out_dir: str) -> list[Check]:
    rep = _read_json(out_dir, "approx_report.json")
    stages = pt_family_stages(config["family"])
    levels = rep["levels"]
    if [lv["q"] for lv in levels] != [len(s) for s in stages]:
        raise OutputError("approx_report.json levels do not match the family periods")
    return [approx_level_check(job, s, lv["sigma_measure"]) for s, lv in zip(stages, levels)]


# ---------------------------------------------------------------------------
# windows: quantum walk, Weyl defect, sieve residuals
# ---------------------------------------------------------------------------

def walk_distributions(gammas: np.ndarray, site: int, spin: str, times: list[int],
                       J: int) -> dict[int, tuple[dict[int, tuple[float, float]], float]]:
    """Evolve U = S Q from a spin delta; per recorded time, the site distribution and survival.

    Q_n = [[rho, -g_n], [conj(g_n), rho]] mixes the spin pair at site n, then
    the shift moves spin + one site right and spin - one site left.
    """
    T = max(times)
    p = len(gammas)
    n_lo = site - T - 1
    sites = np.arange(n_lo, site + T + 2)
    g = gammas[sites % p]
    rho = np.sqrt(1.0 - np.abs(g) ** 2)
    up = np.zeros(len(sites), dtype=complex)
    dn = np.zeros(len(sites), dtype=complex)
    (up if spin == "+" else dn)[site - n_lo] = 1.0
    out = {}
    want = set(times)
    for t in range(T + 1):
        if t in want:
            dist = {int(n): (float(abs(a) ** 2), float(abs(b) ** 2))
                    for n, a, b in zip(sites, up, dn) if a != 0 or b != 0}
            mask = np.abs(sites) <= J
            surv = float(np.sum(np.abs(up[mask]) ** 2 + np.abs(dn[mask]) ** 2))
            out[t] = (dist, surv)
        mu = rho * up - g * dn
        md = g.conj() * up + rho * dn
        up = np.zeros_like(up)
        dn = np.zeros_like(dn)
        up[1:] = mu[:-1]
        dn[:-1] = md[1:]
    return out


def check_walk(job: str, config: dict, out_dir: str) -> list[Check]:
    gammas = _table({"values": config["coins"]["gammas"]})
    init = config["initial"]
    steps, J = config["steps"], config["survival_J"]
    times = sorted(set(config["record_times"]) | {steps})
    ref = walk_distributions(gammas, init["site"], init["spin"], times, J)
    dist_rows = _read_csv(out_dir, "distribution.csv")
    surv_rows = _read_csv(out_dir, "survival.csv")
    got: dict[int, dict[int, tuple[float, float]]] = {t: {} for t in times}
    for r in dist_rows:
        got.setdefault(int(r["t"]), {})[int(r["n"])] = (r["p_plus"], r["p_minus"])
    if set(got) != set(times) or [int(r["t"]) for r in surv_rows] != times:
        raise OutputError("walk outputs do not cover the recorded times")
    p_err = s_err = 0.0
    for r in surv_rows:
        t = int(r["t"])
        dist, surv = ref[t]
        s_err = max(s_err, abs(r["survival"] - surv) / max(t, 1))
        for n in set(dist) | set(got[t]):
            a = got[t].get(n, (0.0, 0.0))
            b = dist.get(n, (0.0, 0.0))
            p_err = max(p_err, max(abs(a[0] - b[0]), abs(a[1] - b[1])) / max(t, 1))
    # both sides apply t unitary steps, each rounding the state by <= 4 eps
    # in norm; |p - p'| <= (|psi| + |psi'|) |psi - psi'| <= 2 * 2 * 4 t eps
    return [
        Check(job, "distribution_per_step", p_err, 16 * EPS),
        Check(job, "survival_per_step", s_err, 16 * EPS),
    ]


def halfline_window(alpha_of, lo: int, hi: int) -> np.ndarray:
    """Dense CMV restriction to [lo, hi] with alpha_{lo-1} = alpha_hi = -1.

    Theta(-1) = diag(-1, 1) couples nothing across a cut, so the blocks of
    L (even n) and M (odd n) restricted to the window multiply to the exact
    restriction of E = L M.
    """
    n = hi - lo + 1
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    for g in range(lo - 1, hi + 1):
        a = -1.0 + 0j if g in (lo - 1, hi) else complex(alpha_of(g))
        blk = _theta_block(a)
        tgt = L if g % 2 == 0 else M
        for di in range(2):
            for dj in range(2):
                i, j = g + di - lo, g + dj - lo
                if 0 <= i < n and 0 <= j < n:
                    tgt[i, j] = blk[di, dj]
    return L @ M


class HalflineResolvent:
    """<delta_loc, (E + z)(E - z)^{-1} delta_loc> for all z from one Schur form.

    E = Z T Z*; replacing T by its diagonal D perturbs E by at most
    eps_E = ||E - Z D Z*||_F (measured).  With |z| = r < 1 the first-order
    change of the value is 2 r eps_E ||(E - z)^{-1}|| ||(E' - z)^{-1}||.
    """

    def __init__(self, E: np.ndarray, loc: int):
        T, Z = scipy.linalg.schur(E, output="complex")
        self.lam = np.diag(T).copy()
        self.weight = np.abs(Z[loc, :]) ** 2
        self.eps_E = float(np.linalg.norm(E - (Z * self.lam) @ Z.conj().T))
        self.eps_E = max(self.eps_E, EPS * len(self.lam))

    def value(self, z: complex) -> tuple[complex, float]:
        d = self.lam - z
        val = complex(np.sum(self.weight * (self.lam + z) / d))
        err = 2.0 * abs(z) * self.eps_E / ((1.0 - abs(z)) * float(np.min(np.abs(d))))
        return val, err


def _m_minus_to_M(alpha_k: complex, m2: complex) -> tuple[complex, float]:
    """The M_minus combination of m_minus(k-2) and |dM/dm2|."""
    one_minus = 1.0 - alpha_k.conjugate()
    one_plus = 1.0 + alpha_k.conjugate()
    num = one_minus.real + 1j * one_plus.imag * m2
    den = 1j * one_minus.imag + one_plus.real * m2
    deriv = (1j * one_plus.imag * den - num * one_plus.real) / den ** 2
    return num / den, abs(deriv)


def check_weyl(job: str, config: dict, out_dir: str) -> list[Check]:
    alpha = _table(config["sequence"])
    q = len(alpha)
    dim = config["dim"]
    k = config.get("k", 0)
    r_values = [float(r) for r in config["r_values"]]
    rows = _read_csv(out_dir, "weyl_defect.csv")
    if len(rows) != len(r_values) * config["samples"]:
        raise OutputError("weyl_defect.csv does not hold samples x r_values rows")

    def alpha_of(m):
        return alpha[m % q]

    # m_plus on [k-1, k+dim-2]; m_minus on [k-dim-1, k-2] (cut at k-2)
    bp = k - 1
    plus = HalflineResolvent(halfline_window(alpha_of, bp, bp + dim - 1), 0)
    bm = k - 2
    minus = HalflineResolvent(halfline_window(alpha_of, bm - dim + 1, bm), dim - 1)
    worst = 0.0
    for r in rows:
        if not any(abs(r["r"] - rv) <= 4 * EPS for rv in r_values):
            raise OutputError(f"unexpected radius {r['r']} in weyl_defect.csv")
        z = r["r"] * complex(math.cos(r["theta"]), math.sin(r["theta"]))
        mp, e_p = plus.value(z)
        mm_raw, e_m = minus.value(z)
        big_m, gain = _m_minus_to_M(complex(alpha_of(k)), -mm_raw)
        ref = abs(mp + big_m.conjugate())
        # the program's banded solve carries a backward error of a few eps
        # per row of the pentadiagonal system: same propagation as above
        rr = abs(z)
        e_prog = 2.0 * rr * 64 * EPS * (1.0 + rr) / (1.0 - rr) ** 2
        tol = (e_p + e_prog) + gain * (e_m + e_prog)
        worst = max(worst, abs(r["defect"] - ref) / tol)
    return [Check(job, "defect_vs_dense_resolvent", worst, 1.0)]


SIEVE_TOL = 1e-12


def check_sieve(job: str, config: dict, out_dir: str) -> list[Check]:
    rep = _read_json(out_dir, "sieve_check.json")
    if rep.get("dim") != config["dim"]:
        raise OutputError("sieve_check.json reports another dim")
    return [Check(job, key, float(rep[key]), SIEVE_TOL)
            for key in ("X_invariant_residual", "Y_invariant_residual", "similarity_residual")]


CHECKERS = {
    "lyapunov": check_lyapunov,
    "bands": check_bands,
    "approx": check_approx,
    "walk": check_walk,
    "weyl-defect": check_weyl,
    "sieve-check": check_sieve,
}


def check_job(job: str, command: str, config: dict, out_dir: str) -> list[Check]:
    return CHECKERS[command](job, config, out_dir)
