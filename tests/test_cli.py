import cmath
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cmvlab import coefficients as C
from cmvlab import transfer as T
from cmvlab.cli import _build_parser, main
from cmvlab.errors import certificates


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def fmt(x) -> str:
    """The reference formatting of one CSV cell: integers as they are, any
    other number at 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def read_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.rstrip("\n").split(","))
    return rows[0], rows[1:]


def test_bands_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "bands.json", {
        "sequence": {"kind": "constant", "value": [0.5, 0.0]},
        "q": 2, "k_points": 8,
    })
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"bands.csv", "band_arcs.json",
                                        "band_arcs.csv"}
    assert manifest["command"] == "bands"

    header, rows = read_csv(out / "bands.csv")
    assert header == ["q", "n", "k", "re_z", "im_z", "re_dzdk", "im_dzdk"]
    assert len(rows) == 8 * 2

    arcs = json.loads((out / "band_arcs.json").read_text())
    assert 0.0 < arcs["measure"] < 2 * math.pi
    assert arcs["manifest"] == "manifest.json"


def _bands_peak(tmp_path, q, k_points):
    """Traced peak allocation of one bands run, above what was held before it."""
    import tracemalloc

    cfg = write_config(tmp_path, f"b{k_points}.json", {
        "sequence": {"kind": "random_periodic", "q": q, "radius": 0.5},
        "q": q, "k_points": k_points,
    })
    out = tmp_path / f"out{k_points}"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["bands", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, out


def test_bands_memory_does_not_grow_with_k_points_times_q_squared(tmp_path):
    from cmvlab import cli, floquet

    q = 64
    small, _ = _bands_peak(tmp_path, q, 16)
    large, out = _bands_peak(tmp_path, q, 128)
    # the eigenvectors u of all k would add 112 * q^2 * 16 B = 7.3 MB
    assert large - small < 2e6

    # the blocks give the bytes of one stacked solve over every k
    ks = (np.arange(128) + 0.5) * (math.pi / q) / 128
    seq = cli._sequence({"kind": "random_periodic", "q": q, "radius": 0.5}, 2)
    rows = []
    for cut, z, u in floquet.band_stacks(seq, q, ks):
        dz = floquet.band_derivative(seq, q, ks[cut], u)
        rows += [",".join(fmt(x) for x in (q, n, k, w.real, w.imag, d.real, d.imag))
                 for k, zk, dk in zip(ks[cut], z, dz) for n, (w, d) in enumerate(zip(zk, dk))]
    want = ["# manifest: manifest.json", "q,n,k,re_z,im_z,re_dzdk,im_dzdk", *rows]
    assert (out / "bands.csv").read_text() == "\n".join(want) + "\n"


def test_csv_columns_format_like_the_reference(tmp_path):
    from cmvlab import cli

    tiny = np.nextafter(0.0, 1.0)
    floats = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-310, 0.1, 1 / 3,
              -2.5, 1e16, 1e17, 1.2345678901234567e300, math.inf, -math.inf, math.nan]
    ints = [0, -1, 7, 2 ** 53 + 1, -(2 ** 62), 123456789012345678, 42, 3, 5, 6, 8, 9, 10,
            11, 12]
    columns = {"i": np.array(ints), "x": np.array(floats), "y": floats[::-1],
               "j": list(ints)}
    manifest = cli.RunManifest(command="test", parameters={}, seed=0)
    cli._write_csv(manifest, str(tmp_path), "t.csv", columns)
    want = ["# manifest: manifest.json", "i,x,y,j"]
    want += [",".join(fmt(v) for v in row) for row in zip(*columns.values())]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"
    assert manifest.outputs == ["t.csv"]


def _bands_config(tmp_path, q, k_points):
    rng = np.random.default_rng(q)
    vals = 0.5 * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
    return write_config(tmp_path, "bands.json", {
        "sequence": {"kind": "periodic_table", "values": [[v.real, v.imag] for v in vals]},
        "q": q, "k_points": k_points,
    }), C.periodic_table_seq(vals)


def test_bands_diagnostics_match_eig(tmp_path, monkeypatch):
    from cmvlab import floquet

    q, K = 8, 16
    cfg, seq = _bands_config(tmp_path, q, K)
    out = tmp_path / "out"
    cayley, pairs = floquet._cayley_eigenpairs, []

    def kept(E, p):
        z, u, resid = cayley(E, p)
        pairs.append((z, u))
        return z, u, resid

    monkeypatch.setattr(floquet, "_cayley_eigenpairs", kept)
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    ze, ue = pairs[-1]  # the edge pairs, at k = 0 and pi/q
    diag = json.loads((out / "band_arcs.json").read_text())["diagnostics"]
    assert set(diag) == {"max_band_residual", "min_band_gap", "max_edge_residual"}
    _, rows = read_csv(out / "bands.csv")
    ks = np.array([float(r[2]) for r in rows[::q]])
    z = np.array([complex(float(r[3]), float(r[4])) for r in rows]).reshape(K, q)
    Ek = floquet.floquet_matrices(seq, q, ks)

    # gaps between neighbouring eigenvalues of np.linalg.eig, sorted by angle
    w = np.linalg.eigvals(Ek)
    w = np.take_along_axis(w, np.argsort(np.angle(w) % (2 * math.pi), axis=1), axis=1)
    gaps = np.abs(w - np.roll(w, -1, axis=1))
    gap = diag["min_band_gap"]
    i = int(np.flatnonzero(ks == gap["k"])[0])
    assert gap["tol"] == 1e-8
    assert gap["value"] == pytest.approx(gaps.min(), abs=1e-12)
    assert gaps[i, gap["n"]] == pytest.approx(gaps.min(), abs=1e-12)

    # every eigenpair residual ||E u - z u||, z as written, u of band_stacks;
    # by Bauer-Fike each z then lies that close to an eigenvalue of eig
    _, _, u = next(floquet.band_stacks(seq, q, ks))
    resid = np.array([[np.linalg.norm(Ek[i] @ u[i, :, n] - z[i, n] * u[i, :, n])
                       for n in range(q)] for i in range(K)])
    res = diag["max_band_residual"]
    i = int(np.flatnonzero(ks == res["k"])[0])
    assert res["tol"] == 1e-10
    assert res["value"] == pytest.approx(resid.max(), abs=1e-15)
    assert resid[i, res["n"]] == pytest.approx(resid.max(), abs=1e-15)
    assert np.abs(z - w).max() <= 64 * q * np.finfo(float).eps

    # the band edges: every residual of the run's edge pairs at k = 0 and
    # pi/q, recomputed one pair at a time, and every edge and arc end within
    # 64 q eps of an eigenvalue of eig
    ends = [0.0, math.pi / q]
    E = floquet.floquet_matrices(seq, q, ends)
    edge_resid = np.array([[np.linalg.norm(E[i] @ ue[i, :, n] - ze[i, n] * ue[i, :, n])
                            for n in range(q)] for i in range(2)])
    edge = diag["max_edge_residual"]
    i = ends.index(edge["k"])
    n = int(np.flatnonzero(np.angle(ze[i]) % (2 * math.pi) == edge["theta"])[0])
    assert edge["tol"] == 1e-10
    assert edge["value"] == pytest.approx(edge_resid.max(), abs=1e-15)
    assert edge_resid[i, n] == pytest.approx(edge_resid.max(), abs=1e-15)
    we = np.linalg.eigvals(E)
    assert np.abs(ze[:, :, None] - we[:, None, :]).min(axis=-1).max() <= 64 * q * np.finfo(float).eps
    _, arcs = read_csv(out / "band_arcs.csv")
    arc_ends = np.exp(1j * np.array(arcs, dtype=float)).ravel()
    assert np.abs(arc_ends[:, None] - we.ravel()).min(axis=-1).max() <= 64 * q * np.finfo(float).eps


def test_bands_exits_3_when_the_pole_sits_on_the_spectrum(tmp_path, capsys, monkeypatch):
    from cmvlab import floquet

    def on_spectrum(seq, q, k):
        return np.linalg.eigvals(floquet.floquet_matrices(seq, q, k))[:, 0]

    cfg, _ = _bands_config(tmp_path, 8, 16)
    assert main(["bands", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(floquet, "_poles", on_spectrum)
    assert main(["bands", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "eigenpair residual" in capsys.readouterr().err


@pytest.mark.parametrize("k_points", [64, 100])
def test_bands_solves_one_pole_eigenproblem_per_interval(tmp_path, monkeypatch, k_points):
    # the 8 pole intervals share one stacked Hermitian eigvalsh, however the
    # k blocks (``floquet._k_block``) fall across them, the two band edge
    # matrices share one more, and no general eigensolver runs (100 k made
    # 19 eigvals calls when each block chose its own poles)
    from cmvlab import floquet

    calls = {"eig": [], "eigvals": [], "eigvalsh": []}

    def spy(name):
        solver = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls[name].append(a.shape)
            return solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    for name in calls:
        spy(name)
    cfg, _ = _bands_config(tmp_path, 32, k_points)
    assert main(["bands", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"eig": [], "eigvals": [],
                     "eigvalsh": [(floquet._POLE_INTERVALS, 32, 32), (2, 32, 32)]}


@pytest.mark.parametrize("q, want", [
    (8, [(64, 8, 8)]),
    (32, [(32, 32, 32)] * 2),
    (64, [(8, 64, 64)] * 8),
])
def test_bands_sizes_its_k_blocks_by_entries(tmp_path, monkeypatch, q, want):
    # a stack holds at most 8 * 64 * 64 entries: the 64 k take one Hermitian
    # eigh at q = 8, two at q = 32 and eight at q = 64; the band edges at
    # k = 0 and pi/q take one more
    shapes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    cfg, _ = _bands_config(tmp_path, q, 64)
    assert main(["bands", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert shapes == want + [(2, q, q)]


@pytest.mark.parametrize("command, stage, config", [
    ("bands", "floquet._poles", {
        "sequence": {"kind": "constant", "value": [0.3, 0.0]}, "q": 4, "k_points": 4}),
    ("approx", "floquet.periodic_spectrum", {
        "family": {"kind": "pt_family", "base_amp": 0.1, "levels": 1},
        "grid_size": 8, "n_steps": 1000}),
    ("lyapunov", "transfer.lyapunov", {
        "sequence": {"kind": "quasiperiodic", "amplitude": 0.3, "frequency": 0.3, "phase": 0.0},
        "grid_size": 8, "n_steps": 1000}),
])
def test_a_config_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, command, stage,
                                               config):
    # the stage fails as numpy does when it cannot allocate an array, without allocating one
    from cmvlab import cli

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                          "and data type complex128")

    module, name = stage.split(".")
    monkeypatch.setattr(getattr(cli, module), name, no_memory)
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {command} config needs more memory than is available")
    assert "Unable to allocate 8.00 TiB" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def spy_on_stage_tables(monkeypatch):
    """The lengths of the tables periodic_table_seq is asked for; each call
    fails as an allocation would, so a run that builds one stops at once."""
    built = []

    def spy(values):
        built.append(len(values))
        raise MemoryError("a stage table was built")

    monkeypatch.setattr(C, "periodic_table_seq", spy)
    return built


def test_an_approx_family_too_large_for_memory_exits_2_before_any_stage_table(
        tmp_path, capsys, monkeypatch):
    # levels 26: (2q)^2 Floquet entries at q = 2**27, far past any physical memory
    built = spy_on_stage_tables(monkeypatch)
    cfg = write_config(tmp_path, "a.json", {
        **APPROX_SMALL, "family": {**APPROX_SMALL["family"], "levels": 26}})
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the pt_family with q0 = 2, levels = 26 needs ")
    assert "physical memory" in err and "Traceback" not in err
    assert built == [] and not out.exists()


PT_FAMILY_NEEDS = [
    ("approx", 192 * (2 * 8) ** 2),  # the run's peak, 192 bytes per (2q)^2 entry, q = 8
    ("lyapunov", 64 * 8),  # the build's peak, 64 bytes per site of q
]


@pytest.mark.parametrize("command, need", PT_FAMILY_NEEDS)
def test_the_pt_family_memory_bound_is_the_physical_memory(tmp_path, monkeypatch, command,
                                                           need):
    from cmvlab import cli

    key = "family" if command == "approx" else "sequence"
    cfg = write_config(tmp_path, "c.json", {key: APPROX_SMALL["family"], "grid_size": 64,
                                            "n_steps": 1000})
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "fits")]) == 0
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    built = spy_on_stage_tables(monkeypatch)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "refused")]) == 2
    assert built == []


def test_the_approx_memory_bound_counts_the_measured_peak(tmp_path, capsys, monkeypatch):
    # two dense (2q)^2 complex matrices, 32 bytes per entry, fit in memory,
    # but the run's measured peak of up to 182 bytes per entry does not
    from cmvlab import cli

    cfg = write_config(tmp_path, "a.json", {
        **APPROX_SMALL, "family": {**APPROX_SMALL["family"], "levels": 6}})
    monkeypatch.setattr(cli, "_physical_memory", lambda: 32 * (2 * 2 * 2 ** 6) ** 2)
    built = spy_on_stage_tables(monkeypatch)
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the pt_family with q0 = 2, levels = 6 needs ")
    assert built == [] and not out.exists()


@pytest.mark.parametrize("command, need", PT_FAMILY_NEEDS)
def test_the_pt_family_memory_bound_is_the_address_space_limit_where_smaller(
        tmp_path, capsys, monkeypatch, command, need):
    # a soft ``ulimit -v`` below the family's need refuses it before any
    # stage table is built, whatever the physical memory
    import resource

    from cmvlab import cli

    key = "family" if command == "approx" else "sequence"
    cfg = write_config(tmp_path, "c.json", {key: APPROX_SMALL["family"], "grid_size": 64,
                                            "n_steps": 1000})
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 40)
    getrlimit = resource.getrlimit

    def soft_limit(limit):
        return lambda which: ((limit, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS
                              else getrlimit(which))

    monkeypatch.setattr(resource, "getrlimit", soft_limit(need))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "fits")]) == 0
    monkeypatch.setattr(resource, "getrlimit", soft_limit(need - 1))
    built = spy_on_stage_tables(monkeypatch)
    out = tmp_path / "refused"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the pt_family with q0 = 2, levels = 2 needs ")
    assert err.rstrip().endswith("of the address-space limit (RLIMIT_AS)")
    assert built == [] and not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("approx", {"grid_size": 8, "n_steps": 1000}),
    ("bands", {"q": 4, "k_points": 4}),
])
@pytest.mark.parametrize("decay", [{"form": "gaussian"}, {"form": "geometric", "base": 4.0}])
def test_a_pt_family_too_deep_for_int64_exits_2(tmp_path, capsys, command, extra, decay):
    # q0 * 2**levels = 2**1101: the gaussian decay overflowed a float and the
    # geometric one an int-to-float conversion, as tracebacks
    family = {"kind": "pt_family", "base_amp": 0.1, "levels": 1100, "decay": decay}
    key = "family" if command == "approx" else "sequence"
    cfg = write_config(tmp_path, "c.json", {key: family, **extra})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**62" in err and "Traceback" not in err
    assert not out.exists()


def test_bands_rejects_odd_q(tmp_path, capsys):
    cfg = write_config(tmp_path, "bands.json", {
        "sequence": {"kind": "constant", "value": [0.5, 0.0]}, "q": 3,
    })
    rc = main(["bands", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "even" in capsys.readouterr().err


def test_lyapunov_free_full_circle(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "constant", "value": [0.0, 0.0]},
        "grid_size": 16, "n_steps": 2000, "epsilon_L": 0.01,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    z = json.loads((out / "zero_set.json").read_text())
    assert z["measure"] == pytest.approx(2 * math.pi)
    assert z["N"] == 2000 and z["epsilon_L"] == 0.01
    header, rows = read_csv(out / "lyapunov.csv")
    assert header == ["theta", "L", "N", "epsilon"]
    assert len(rows) == 16


def test_lyapunov_reports_the_half_orbit_delta(tmp_path):
    # frequency 0: the constant sequence a = 0.5 e^{0.2 pi i}, given without
    # period metadata, so the Birkhoff branch runs.  Its N-step estimates lie
    # in [L, L + bias(N)], bias(N) = log(2 + N |t| / r) / N from the Schur
    # form [[m1, t], [0, m2]] of the one-step matrix, r = max |m_i|.
    amp, phase, n_steps, grid = 0.5, 0.1, 4000, 64
    thetas = np.arange(grid) * (2 * math.pi / grid)
    with certificates() as kept:
        vals = T.lyapunov(C.quasiperiodic_seq(amp, 0.0, phase), np.exp(1j * thetas), n_steps)
    half_n, half_vals = kept["half_orbit"]
    delta = np.abs(vals - half_vals)
    i = int(np.argmax(delta))
    # a threshold between the two estimates at the worst point flips it
    eps = float(vals[i] + half_vals[i]) / 2
    flips = int(np.sum((vals < eps) != (half_vals < eps)))
    assert flips >= 1
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "quasiperiodic", "amplitude": amp, "frequency": 0.0,
                     "phase": phase},
        "grid_size": grid, "n_steps": n_steps, "epsilon_L": eps,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "lyapunov.json").read_text())["diagnostics"]
    assert diag == {"lanes": T._lane_count(grid, n_steps), "half_N": half_n,
                    "max_abs_delta": {"value": float(delta[i]), "theta": float(thetas[i])},
                    "zero_set_flips": flips}
    assert 0 < half_n < n_steps
    a = amp * cmath.exp(2j * math.pi * phase)
    rho = math.sqrt(1.0 - amp * amp)

    def bias(theta, n):
        z = cmath.exp(1j * theta)
        s = np.array([[z, -a.conjugate()], [-z * a, 1.0]]) / rho
        t, _ = scipy.linalg.schur(s, output="complex")
        r = max(abs(t[0, 0]), abs(t[1, 1]))
        return math.log(2.0 + n * abs(t[0, 1]) / r) / n

    worst = max(bias(thetas[i], half_n), bias(thetas[i], n_steps))
    assert 0.0 < delta[i] <= worst + 1e-12


@pytest.mark.parametrize("grid, n_steps", [(64, 20_000), (64, 1000), (100, 20_000),
                                           (1023, 1000), (1024, 1000), (8, 100_000)])
def test_lyapunov_diagnostics_give_the_lanes_behind_half_n(tmp_path, grid, n_steps):
    # grids under 1024 points: the largest power of two P with P * grid <= 8192
    # and P * 64 <= N, and the first P / 2 lanes of N // P sites each; one lane
    # (P = 1) stops at N // 2
    lanes = 1
    while grid < 1024 and 2 * lanes * grid <= 8192 and 2 * lanes * 64 <= n_steps:
        lanes *= 2
    half_n = n_steps // 2 if lanes == 1 else lanes // 2 * (n_steps // lanes)
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "quasiperiodic", "amplitude": 0.5,
                     "frequency": 0.3819660112501051, "phase": 0.1},
        "grid_size": grid, "n_steps": n_steps,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "lyapunov.json").read_text())["diagnostics"]
    assert (diag["lanes"], diag["half_N"]) == (lanes, half_n)


def test_lyapunov_of_a_periodic_sequence_has_no_diagnostics(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "constant", "value": [0.5, 0.0]},
        "grid_size": 16, "n_steps": 2000, "epsilon_L": 0.01,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    assert "diagnostics" not in json.loads((out / "lyapunov.json").read_text())


def test_lyapunov_of_a_long_periodic_table_is_finite_or_exits_3(tmp_path, monkeypatch):
    # the unscaled monodromy of this table overflows at every grid point
    cfg = write_config(tmp_path, "lyap.json", {
        "sequence": {"kind": "random_periodic", "q": 2048, "radius": 0.9},
        "grid_size": 64, "n_steps": 1000,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    L = [float(row[1]) for row in read_csv(out / "lyapunov.csv")[1]]
    assert len(L) == 64 and all(0.1 < v < 1.0 for v in L)

    monkeypatch.setattr(T, "_spectral_radius_2x2", lambda m: np.full(m.shape[:-2], np.nan))
    assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "nan"),
                 "--seed", "1"]) == 3


def test_lyapunov_rejects_small_n(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "constant", "value": [0.0, 0.0]},
        "grid_size": 16, "n_steps": -5,
    })
    assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "n_steps" in capsys.readouterr().err


def test_lyapunov_determinism(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "periodic_table",
                     "values": [[0.3, 0.1], [0.0, -0.2]]},
        "grid_size": 32, "n_steps": 2000, "epsilon_L": 0.01,
    })
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("lyapunov.csv", "lyapunov.json", "zero_set.json",
                  "zero_set.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        assert (outs[0] / fname).read_bytes() == (outs[2] / fname).read_bytes()


def test_approx_report(tmp_path):
    cfg = write_config(tmp_path, "a.json", {
        "family": {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 2,
                   "decay": {"form": "geometric", "base": 4.0}},
        "grid_size": 2048, "n_steps": 5000, "epsilon_L": 0.01, "k": 0,
    })
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "approx_report.json").read_text())
    assert rep["lp_sum_criterion"]["holds"] is True
    assert "lhs" in rep["lp_sum_criterion"] and "rhs" in rep["lp_sum_criterion"]
    diffs = [lvl["sigma2q_minus_Z"] for lvl in rep["levels"]]
    assert len(diffs) == 3
    assert all(b <= a + 1e-9 for a, b in zip(diffs, diffs[1:]))
    assert len(rep["hausdorff_consecutive"]) == 2


@pytest.mark.parametrize("decay, want", [
    ({"form": "gaussian"}, [True, True, False, False]),
    ({"form": "geometric", "base": 4.0}, [True, True, True, True]),
])
def test_approx_says_which_increments_are_resolved(tmp_path, decay, want):
    # Gaussian decay: the stage-2 and stage-3 increments (1.6e-29 and
    # 6.6e-113) lie below ulp(0.1), so those stages repeat stage 1
    cfg = write_config(tmp_path, "a.json", {
        "family": {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 3,
                   "decay": decay},
        "grid_size": 512, "n_steps": 1000, "epsilon_L": 0.01, "k": 0,
    })
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    levels = json.loads((out / "approx_report.json").read_text())["levels"]
    assert [lvl["increment_resolved"] for lvl in levels] == want


def test_approx_reads_no_orbit_length(tmp_path, monkeypatch):
    # the zero-set sweep runs on the family's limit, a periodic sequence, so
    # the exponent takes the exact formula: n_steps is only echoed as N
    def no_birkhoff(*args):
        raise AssertionError("approx formed a Birkhoff product")

    monkeypatch.setattr(T, "_birkhoff", no_birkhoff)
    reports = []
    for n_steps in (1000, 100_000):
        cfg = write_config(tmp_path, f"a{n_steps}.json",
                           {**APPROX_SMALL, "grid_size": 512, "n_steps": n_steps, "k": 0})
        out = tmp_path / f"out{n_steps}"
        assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "approx_report.json").read_text())
        assert rep.pop("N") == n_steps
        reports.append(rep)
    assert reports[0] == reports[1]


def test_approx_diagnostics_match_the_edge_residuals(tmp_path, monkeypatch):
    from cmvlab import cli, floquet

    cfg = write_config(tmp_path, "a.json", {**APPROX_SMALL, "k": 0})
    cayley, pairs = floquet._cayley_eigenpairs, []

    def kept(E, p):
        z, u, resid = cayley(E, p)
        pairs.append((z, u))
        return z, u, resid

    monkeypatch.setattr(floquet, "_cayley_eigenpairs", kept)
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 0
    levels = json.loads((out / "approx_report.json").read_text())["levels"]
    family = cli._family(APPROX_SMALL["family"])
    assert len(pairs) == 2 * len(levels)  # the edges of each stage and of its 2q periodization

    for n, (level, stage) in enumerate(zip(levels, family.stages)):
        q = level["q"]
        # every edge residual of the level's two runs, recomputed one pair at
        # a time from the sequences: (value, k, theta)
        resid = []
        for (seq, p), (z, u) in zip([(stage, q), (C.periodize(family.limit, 2 * q), 2 * q)],
                                    pairs[2 * n:2 * n + 2]):
            ends = [0.0, math.pi / p]
            E = floquet.floquet_matrices(seq, p, ends)
            resid += [(np.linalg.norm(E[i] @ u[i, :, m] - z[i, m] * u[i, :, m]), ends[i],
                       float(np.angle(z[i, m]) % (2 * math.pi)))
                      for i in range(2) for m in range(p)]
        worst = max(r for r, _, _ in resid)
        diag = level["diagnostics"]
        assert set(diag) == {"max_edge_residual"}
        edge = diag["max_edge_residual"]
        assert set(edge) == {"value", "tol", "k", "theta"}
        assert edge["tol"] == 1e-10
        assert edge["value"] == pytest.approx(worst, abs=1e-15)
        at = [r for r, k, theta in resid if (k, theta) == (edge["k"], edge["theta"])]
        assert at and max(at) == pytest.approx(worst, abs=1e-15)


def test_approx_exits_3_on_an_edge_residual_above_its_tolerance(tmp_path, capsys,
                                                               monkeypatch):
    from cmvlab import floquet

    cfg = write_config(tmp_path, "a.json", {**APPROX_SMALL, "k": 0})
    cayley = floquet._cayley_eigenpairs

    def patched(E, p):
        z, u, resid = cayley(E, p)
        resid[-1, -1] = 2e-10
        return z, u, resid

    monkeypatch.setattr(floquet, "_cayley_eigenpairs", patched)
    assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "eigenpair residual 2.00e-10" in capsys.readouterr().err


def test_walk_run_and_malformed_coin(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "identity"},
        "initial": {"site": 0, "spin": "+"},
        "steps": 8, "survival_J": 3, "record_times": [4, 8],
    })
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "distribution.csv")
    assert header == ["t", "n", "p_plus", "p_minus"]
    at8 = [r for r in rows if r[0] == "8"]
    assert len(at8) == 1 and at8[0][1] == "8" and float(at8[0][2]) == 1.0

    bad = write_config(tmp_path, "bad.json", {
        "coins": {"kind": "table", "matrices": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        ]},
        "steps": 4,
    })
    rc = main(["walk", "--config", bad, "--out", str(tmp_path / "o2")])
    assert rc == 2
    assert "site 1" in capsys.readouterr().err


def test_walk_coin_given_as_object_is_malformed(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "table", "matrices": [{"a": 1}]}, "steps": 4,
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "coin at site 0 is malformed" in capsys.readouterr().err


def test_sieve_check(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "sequence": {"kind": "constant", "value": [0.5, 0.0]}, "dim": 16,
    })
    out = tmp_path / "out"
    assert main(["sieve-check", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "sieve_check.json").read_text())
    for key in ("X_invariant_residual", "Y_invariant_residual",
                "similarity_residual"):
        assert rep[key] < 1e-12


def test_sieve_check_diagnostics_report_a_residual_above_its_tolerance(tmp_path,
                                                                      monkeypatch):
    from cmvlab import operator

    # on sieved input every residual is exactly 0.0, so one is patched in
    def patched(hat, ref):
        return {"X_invariant_residual": 0.0, "Y_invariant_residual": 2e-13,
                "similarity_residual": 3e-12}

    monkeypatch.setattr(operator, "_square_residuals", patched)
    cfg = write_config(tmp_path, "s.json", {
        "sequence": {"kind": "constant", "value": [0.5, 0.0]}, "dim": 8,
    })
    out = tmp_path / "out"
    assert main(["sieve-check", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "sieve_check.json").read_text())
    assert rep["diagnostics"] == {"max_square_residual": {
        "value": 3e-12, "tol": 1e-12, "name": "similarity_residual"}}


def test_sieve_check_diagnostics_value_is_the_largest_residual(tmp_path, monkeypatch):
    from cmvlab import operator

    # without sieving the square leaks, so the three residuals are O(1) and
    # apart
    monkeypatch.setattr(operator, "sieve", lambda seq: seq)
    cfg = write_config(tmp_path, "s.json", {
        "sequence": {"kind": "periodic_table",
                     "values": [[0.5, 0.0], [0.0, 0.3], [-0.2, 0.0], [0.4, 0.1]]},
        "dim": 16,
    })
    out = tmp_path / "out"
    assert main(["sieve-check", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "sieve_check.json").read_text())
    keys = ("X_invariant_residual", "Y_invariant_residual", "similarity_residual")
    assert len({rep[k] for k in keys}) == 3 and min(rep[k] for k in keys) > 1e-2
    worst = rep["diagnostics"]["max_square_residual"]
    assert worst["value"] == max(rep[k] for k in keys)
    assert rep[worst["name"]] == worst["value"]
    assert worst["tol"] == 1e-12


def test_weyl_defect(tmp_path):
    cfg = write_config(tmp_path, "w.json", {
        "sequence": {"kind": "constant", "value": [0.0, 0.0]},
        "k": 0, "samples": 16, "dim": 256, "r_values": [0.9],
        "arc_set": "full",
    })
    out = tmp_path / "out"
    assert main(["weyl-defect", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "weyl_defect.csv")
    assert header == ["theta", "r", "defect"]
    assert len(rows) == 16
    assert max(float(r[2]) for r in rows) < 1e-9


def test_weyl_defect_takes_the_largest_radius_below_the_bound(tmp_path, monkeypatch):
    # r e^{i theta} rounds |z| one ulp above r at some of these angles, which
    # for this r is past the solver's bound 1 - 1e-6
    from cmvlab import weyl

    r = math.nextafter(1.0 - 1e-6, 0.0)
    cfg = write_config(tmp_path, "w.json", {
        "sequence": {"kind": "constant", "value": [0.9, 0.0]},
        "samples": 64, "dim": 512, "r_values": [r], "arc_set": [[-1.0, 1.0]],
    })
    seen = []
    solve = weyl.M_coefficients

    def spy(seq, k, z, dim):
        seen.append(z.copy())
        return solve(seq, k, z, dim)

    monkeypatch.setattr(weyl, "M_coefficients", spy)
    out = tmp_path / "out"
    assert main(["weyl-defect", "--config", cfg, "--out", str(out)]) == 0
    z = seen[0]
    assert np.all(np.abs(z) <= r)
    thetas = [float(row[0]) for row in read_csv(out / "weyl_defect.csv")[1]]
    assert np.max(np.abs(z - r * np.exp(1j * np.array(thetas)))) < 1e-15
    assert all(float(row[1]) == r for row in read_csv(out / "weyl_defect.csv")[1])


def test_weyl_defect_on_listed_arcs(tmp_path):
    cfg = write_config(tmp_path, "w.json", {
        "sequence": {"kind": "periodic_table", "values": [[0.3, 0.1], [-0.2, 0.4]]},
        "k": 1, "samples": 16, "dim": 512, "r_values": [0.9, 0.92],
        "arc_set": [[0.5, 1.0], [2.0, 2.5]],
    })
    out = tmp_path / "out"
    assert main(["weyl-defect", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "weyl_defect.csv")
    assert [r[1] for r in rows] == ["0.90000000000000002"] * 16 + ["0.92000000000000004"] * 16
    assert all(0.5 <= float(r[0]) <= 1.0 or 2.0 <= float(r[0]) <= 2.5 for r in rows)


WEYL_REPORT_TABLE = [[0.3, 0.1], [-0.2, 0.4], [0.1, -0.5]]


def _weyl_report_run(tmp_path, monkeypatch, patch=None):
    """weyl-defect on a period-3 table at k = 1: its exit code, the points z
    that reached ``weyl.M_coefficients``, and the output directory.
    ``patch`` may rewrite the half-line (values, diameters) first."""
    from cmvlab import weyl

    cfg = write_config(tmp_path, "w.json", {
        "sequence": {"kind": "periodic_table", "values": WEYL_REPORT_TABLE},
        "k": 1, "samples": 16, "dim": 512, "r_values": [0.9, 0.95],
    })
    seen = []
    solve, halfline = weyl.M_coefficients, weyl._halfline_values

    def spy(seq, k, z, dim):
        seen.append(z.copy())
        return solve(seq, k, z, dim)

    monkeypatch.setattr(weyl, "M_coefficients", spy)
    if patch is not None:
        monkeypatch.setattr(weyl, "_halfline_values",
                            lambda *args: patch(*(a.copy() for a in halfline(*args))))
    out = tmp_path / "out"
    return main(["weyl-defect", "--config", cfg, "--out", str(out)]), seen[0], out


def test_weyl_defect_reports_its_certificates(tmp_path, monkeypatch):
    from cmvlab import weyl

    rc, z, out = _weyl_report_run(tmp_path, monkeypatch)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["weyl_defect.csv", "weyl_report.json"]
    rep = json.loads((out / "weyl_report.json").read_text())["diagnostics"]
    # recomputed from the two half-lines at k - 1 and k - 2, rows over z
    seq = C.periodic_table_seq([complex(*v) for v in WEYL_REPORT_TABLE])
    values, diameters = weyl._halfline_values(seq, [(0, "plus"), (-1, "minus")], z, 512)
    a = complex(seq(1)).conjugate()
    den = np.abs(1j * (1.0 - a).imag + (1.0 + a).real * -values[1])

    def at(i, value, tol):
        return {"value": float(value[i]), "tol": tol,
                "theta": float(np.angle(z[i]) % (2 * math.pi)), "r": float(abs(z[i]))}

    worst = np.unravel_index(np.argmax(diameters), diameters.shape)[1]
    lowest = np.unravel_index(np.argmin(values.real), values.shape)[1]
    assert rep == {
        "max_disk_diameter": at(worst, diameters.max(axis=0), 1e-8),
        "min_signed_real_part": at(lowest, values.real.min(axis=0), -1e-8),
        "min_minus_denominator": at(int(np.argmin(den)), den, 1e-12),
    }
    assert 0 < rep["max_disk_diameter"]["value"] < 1e-8
    assert rep["min_signed_real_part"]["value"] > 0
    assert rep["min_minus_denominator"]["value"] > 1e-12


def _past_diameter(values, diameters):
    diameters[1, 3] = 1e-8
    return values, diameters


def _past_sign(values, diameters):
    values[0, 5] = -2e-8 + 1j
    return values, diameters


def _past_denominator(values, diameters):
    # m2 = -values[1] zeroes 1j (1 - conj a).imag + (1 + conj a).real m2
    a = complex(*WEYL_REPORT_TABLE[1]).conjugate()
    values[1, 7] = 1j * (1.0 - a).imag / (1.0 + a).real
    return values, diameters


@pytest.mark.parametrize("patch, message", [
    (_past_diameter, "Weyl disk has diameter 1.00e-08"),
    (_past_sign, "Caratheodory sign violated on side plus"),
    (_past_denominator, "M_minus denominator is numerically zero"),
])
def test_weyl_defect_exits_3_on_a_certificate_past_its_tolerance(tmp_path, monkeypatch, capsys,
                                                                   patch, message):
    rc, _, out = _weyl_report_run(tmp_path, monkeypatch, patch)
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_set_override(tmp_path):
    cfg = write_config(tmp_path, "b.json", {
        "sequence": {"kind": "constant", "value": [0.3, 0.0]},
        "q": 2, "k_points": 4,
    })
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out),
                 "--set", "q=4"]) == 0
    header, rows = read_csv(out / "bands.csv")
    assert {r[0] for r in rows} == {"4"}


def test_missing_config(tmp_path, capsys):
    rc = main(["bands", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    rc = main(["bands", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["a_file", "a_file/x"])
def test_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, out):
    from cmvlab import floquet

    def no_compute(*args, **kwargs):
        raise AssertionError("a bad --out must be refused before any compute")

    monkeypatch.setattr(floquet, "band_stacks", no_compute)
    (tmp_path / "a_file").write_text("")
    cfg = write_config(tmp_path, "b.json", {
        "sequence": {"kind": "constant", "value": [0.3, 0.0]}, "q": 2, "k_points": 4,
    })
    rc = main(["bands", "--config", cfg, "--out", str(tmp_path / out)])
    assert rc == 2
    assert "is a file" in capsys.readouterr().err
    assert (tmp_path / "a_file").read_text() == ""


def test_weyl_defect_instability_exit_code(tmp_path, capsys):
    # |z| = 0.99 cannot be certified on a 64-site window over the free
    # operator's full-circle spectrum
    cfg = write_config(tmp_path, "w.json", {
        "sequence": {"kind": "constant", "value": [0.0, 0.0]},
        "k": 0, "samples": 16, "dim": 64, "r_values": [0.99],
        "arc_set": "full",
    })
    rc = main(["weyl-defect", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "window" in capsys.readouterr().err


def test_random_periodic_sequence_uses_seed(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "sequence": {"kind": "random_periodic", "q": 4, "radius": 0.5},
        "dim": 16,
    })
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    for out, seed in ((out1, "7"), ((out2), "7"), ((out3), "8")):
        assert main(["sieve-check", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == 0
    assert (out1 / "sieve_check.json").read_bytes() == \
        (out2 / "sieve_check.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["seed"] == 7


APPROX_SMALL = {
    "family": {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 2,
               "decay": {"form": "geometric", "base": 4.0}},
    "grid_size": 64, "n_steps": 1000, "epsilon_L": 0.01,
}


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import cmvlab.cli
print(json.dumps([cmvlab.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""

NUMPY_MA_RUN = """
import json, sys
import cmvlab.cli
codes = [cmvlab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def run_every_command_fresh(tmp_path, script):
    """Run each subcommand once on a tiny config in one fresh interpreter
    that executes ``script``; returns the last line it prints, parsed."""
    import cmvlab
    from cmvlab.cli import _COMMANDS

    periodic = {"kind": "periodic_table", "values": [[0.3, 0.1], [-0.2, 0.4]]}
    configs = {
        "bands": {"sequence": periodic, "q": 4, "k_points": 4},
        "lyapunov": {"sequence": {"kind": "quasiperiodic", "amplitude": 0.5,
                                  "frequency": 0.3, "phase": 0.0},
                     "grid_size": 8, "n_steps": 1000},
        "approx": {**APPROX_SMALL, "k": 0},
        "walk": {"coins": {"kind": "hadamard"}, "steps": 8},
        "sieve-check": {"sequence": periodic, "dim": 8},
        "weyl-defect": {"sequence": periodic, "samples": 16, "dim": 64,
                        "r_values": [0.5]},
    }
    assert configs.keys() == _COMMANDS.keys()
    runs = [[cmd, "--config", write_config(tmp_path, f"{cmd}.json", cfg),
             "--out", str(tmp_path / cmd)] for cmd, cfg in configs.items()]
    src = str(Path(cmvlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_runs_without_scipy(tmp_path):
    assert run_every_command_fresh(tmp_path, NO_SCIPY_RUN) == [0] * 6


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs ~15 ms of import; np.unique without return_* flags
    # pulls it in through np.ma.is_masked
    assert run_every_command_fresh(tmp_path, NUMPY_MA_RUN) == {
        "codes": [0] * 6, "numpy.ma": False}


@pytest.mark.parametrize("k", [3, 10, -1])
def test_approx_rejects_stage_index_before_any_sweep(tmp_path, capsys, monkeypatch, k):
    from cmvlab import floquet, transfer

    def no_compute(*args, **kwargs):
        raise AssertionError("the stage index must be checked before any sweep")

    monkeypatch.setattr(transfer, "lyapunov", no_compute)
    monkeypatch.setattr(floquet, "periodic_spectrum", no_compute)
    cfg = write_config(tmp_path, "a.json", {**APPROX_SMALL, "k": k})
    assert main(["approx", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'k'" in err and "0..2" in err


@pytest.mark.parametrize("field, value, reason", [
    ("n_steps", 10, ">= 1000"),
    ("epsilon_L", -1, "positive"),
    ("epsilon_L", 0.0, "positive"),
])
def test_approx_checks_sweep_fields_like_lyapunov(tmp_path, capsys, monkeypatch,
                                                  field, value, reason):
    from cmvlab import floquet, transfer

    def no_compute(*args, **kwargs):
        raise AssertionError("sweep fields must be checked before any sweep")

    monkeypatch.setattr(transfer, "lyapunov", no_compute)
    monkeypatch.setattr(floquet, "periodic_spectrum", no_compute)
    lyap = {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
            "grid_size": 64, "n_steps": 1000, "epsilon_L": 0.01}
    for command, config in (("approx", {**APPROX_SMALL, "k": 0}), ("lyapunov", lyap)):
        cfg = write_config(tmp_path, "a.json", {**config, field: value})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and reason in err


@pytest.mark.parametrize("command, config, override, field", [
    ("bands", {"sequence": {"kind": "constant", "value": [0.3, 0.0]}, "q": 2},
     "q=[4]", "q"),
    ("approx", APPROX_SMALL, "n_steps=[1000]", "n_steps"),
    ("lyapunov", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                  "grid_size": 8, "n_steps": 1000}, "grid_size=8.5", "grid_size"),
    ("lyapunov", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                  "grid_size": 8, "n_steps": 1000}, "n_steps=true", "n_steps"),
    ("walk", {"coins": {"kind": "identity"}, "steps": 4}, "record_times=[2, 2.5]",
     "record_times"),
])
def test_non_integer_fields_exit_2(tmp_path, capsys, command, config, override, field):
    cfg = write_config(tmp_path, "c.json", config)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "integer" in err


WEYL_TABLE = {"kind": "periodic_table", "values": [[0.3, 0.1], [-0.2, 0.4]]}


@pytest.mark.parametrize("command, config, field", [
    ("walk", {"coins": {"kind": "hadamard"}, "steps": 4,
              "initial": {"site": 10 ** 19, "spin": "+"}}, "initial.site"),
    ("weyl-defect", {"sequence": WEYL_TABLE, "k": 10 ** 19, "samples": 4, "dim": 8}, "k"),
    ("weyl-defect", {"sequence": WEYL_TABLE, "k": -10 ** 19, "samples": 4, "dim": 8}, "k"),
])
def test_integers_beyond_int64_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command, config, field):
    from cmvlab import qwalk, weyl

    def no_compute(*args, **kwargs):
        raise AssertionError("integer fields must be checked before any work")

    monkeypatch.setattr(qwalk, "evolve", no_compute)
    monkeypatch.setattr(weyl, "_defects", no_compute)
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "2**62" in err
    assert not out.exists()


def test_integer_fields_take_magnitudes_up_to_2_62():
    from cmvlab.cli import _as_int

    assert _as_int("k", 2 ** 62) == 2 ** 62 and _as_int("k", -2 ** 62) == -2 ** 62
    assert _as_int("k", float(2 ** 62)) == 2 ** 62
    for big in (2 ** 62 + 1, -2 ** 62 - 1, 2.0 ** 63):
        with pytest.raises(ValueError, match=r"'k' must have magnitude at most 2\*\*62"):
            _as_int("k", big)


def test_integral_float_fields_are_accepted(tmp_path):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "constant", "value": [0.0, 0.0]},
        "grid_size": 8.0, "n_steps": 1000.0,
    })
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "lyapunov.csv")
    assert len(rows) == 8 and {r[2] for r in rows} == {"1000"}


def test_spec_missing_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {
        "sequence": {"kind": "quasiperiodic", "amplitude": 0.5, "frequency": 0.3},
        "grid_size": 8, "n_steps": 1000,
    })
    assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "quasiperiodic" in err and "'sequence.phase'" in err


@pytest.mark.parametrize("spec, field", [
    ({"kind": "quasiperiodic", "amplitude": 0.5, "frequency": 0.3}, "phase"),
    ({"kind": "constant"}, "value"),
    ({"kind": "periodic_table"}, "values"),
    ({"kind": "pt_family", "q0": 2}, "base_amp"),
])
def test_sequence_kind_missing_field_is_named(tmp_path, capsys, spec, field):
    cfg = write_config(tmp_path, "l.json", {"sequence": spec, "grid_size": 8, "n_steps": 1000})
    assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert spec["kind"] in err and f"'sequence.{field}'" in err


def test_walk_checkpoints_match_evolution_from_zero(tmp_path):
    from cmvlab import coefficients, qwalk

    gammas = [[0.3, 0.4], [-0.5, 0.1], [0.0, 0.7], [0.6, -0.6]]
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "cgmv_table", "gammas": gammas},
        "initial": {"site": 2, "spin": "-"},
        "steps": 97, "survival_J": 4, "record_times": [0, 1, 13, 40, 41],
    })
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0

    # the reference evolves every record time from t = 0 on its own
    vals = [complex(re, im) for re, im in gammas]
    coins = qwalk.cgmv_coins(coefficients.periodic_table_seq(vals))
    state0 = qwalk.WalkState.delta(2, "-")
    dist = ["# manifest: manifest.json", "t,n,p_plus,p_minus"]
    surv = ["# manifest: manifest.json", "t,survival"]
    for t in (0, 1, 13, 40, 41, 97):
        st = qwalk.evolve(state0, coins, t)
        for j in range(st.n_lo, st.n_hi + 1):
            pp = coefficients._abs2(st.amplitude(j, "+"))
            pm = coefficients._abs2(st.amplitude(j, "-"))
            if pp > 0 or pm > 0:
                dist.append(",".join(fmt(v) for v in (t, j, pp, pm)))
        surv.append(",".join(fmt(v) for v in (t, st.survival(4))))
    assert (out / "distribution.csv").read_text() == "\n".join(dist) + "\n"
    assert (out / "survival.csv").read_text() == "\n".join(surv) + "\n"


def test_walk_distribution_equals_per_amplitude_python_squares(tmp_path):
    from cmvlab import coefficients, qwalk

    rng = np.random.default_rng(5)
    gammas = 0.8 * np.sqrt(rng.random(4)) * np.exp(2j * math.pi * rng.random(4))
    record = [256, 512, 1024, 2048]
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "cgmv_table", "gammas": [[g.real, g.imag] for g in gammas]},
        "steps": 2048, "survival_J": 5, "record_times": record,
    })
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0

    coins = qwalk.cgmv_coins(coefficients.periodic_table_seq(gammas))
    state = qwalk.WalkState.delta(0, "+")
    dist, t_done = ["# manifest: manifest.json", "t,n,p_plus,p_minus"], 0
    for t in record:
        state, t_done = qwalk.evolve(state, coins, t - t_done), t
        for i, (up, dn) in enumerate(state.amplitudes.tolist()):
            # re * re + im * im in Python floats, per amplitude
            pp, pm = coefficients._abs2(up), coefficients._abs2(dn)
            if pp > 0 or pm > 0:
                dist.append(",".join(fmt(v) for v in (t, state.n_lo + i, pp, pm)))
    assert (out / "distribution.csv").read_text() == "\n".join(dist) + "\n"


def _walk_config(tmp_path):
    return write_config(tmp_path, "w.json", {
        "coins": {"kind": "cgmv_table",
                  "gammas": [[0.3, 0.4], [-0.5, 0.1], [0.0, 0.7], [0.6, -0.6]]},
        "steps": 300, "survival_J": 4, "record_times": [0, 100, 120, 300],
    })


def test_walk_report_diagnostics_match_the_distribution(tmp_path, monkeypatch):
    # coins grown by 1e-13 plant a norm drift of about 2e-13 per step, far
    # above rounding and, after 300 steps, below the 1e-10 bound
    from cmvlab import qwalk

    window_table = qwalk._window_table
    monkeypatch.setattr(qwalk, "_window_table", lambda *a: window_table(*a) * (1 + 1e-13))
    out = tmp_path / "out"
    assert main(["walk", "--config", _walk_config(tmp_path), "--out", str(out)]) == 0
    assert "walk_report.json" in json.loads((out / "manifest.json").read_text())["outputs"]
    diag = json.loads((out / "walk_report.json").read_text())["diagnostics"]

    _, rows = read_csv(out / "distribution.csv")
    drift = {t: abs(math.fsum(float(r[2]) + float(r[3]) for r in rows if int(r[0]) == t) - 1)
             for t in (0, 100, 120, 300)}
    assert [d["t"] for d in diag["norm_drift"]] == [0, 100, 120, 300]
    # every state, each checkpoint's included, is held to 1e-10 from 1
    assert [d["tol"] for d in diag["norm_drift"]] == [1e-10] * 4
    for d in diag["norm_drift"]:
        # the written p sum within rounding of up to 601 terms to evolve's
        assert d["value"] == pytest.approx(drift[d["t"]], abs=1e-13)
    assert drift[300] > 5e-11
    ratio = {t: drift[t] / d["tol"] for t, d in zip(drift, diag["norm_drift"]) if t}
    worst = max(ratio, key=ratio.get)
    assert diag["max_norm_drift_ratio"]["t"] == worst
    assert diag["max_norm_drift_ratio"]["value"] == pytest.approx(ratio[worst], rel=1e-2)


def test_walk_drift_past_the_state_bound_exits_3(tmp_path, capsys, monkeypatch):
    # coins grown by 1e-12 drift norm^2 by about 6e-10 in 300 Hadamard steps:
    # past the 1e-10 that every state must meet, within 1e-9 per step
    from cmvlab import qwalk

    window_table = qwalk._window_table
    monkeypatch.setattr(qwalk, "_window_table", lambda *a: window_table(*a) * (1 + 1e-12))
    cfg = write_config(tmp_path, "w.json", {"coins": {"kind": "hadamard"}, "steps": 300})
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 3
    assert "norm drifted" in capsys.readouterr().err
    assert not (out / "walk_report.json").exists()


def test_walk_planted_drift_exits_3(tmp_path, capsys, monkeypatch):
    from cmvlab import qwalk

    window_table = qwalk._window_table
    monkeypatch.setattr(qwalk, "_window_table", lambda *a: window_table(*a) * (1 + 1e-6))
    out = tmp_path / "out"
    assert main(["walk", "--config", _walk_config(tmp_path), "--out", str(out)]) == 3
    assert "norm drifted" in capsys.readouterr().err
    assert not (out / "walk_report.json").exists()


def test_walk_rejects_negative_survival_j_before_any_evolution(tmp_path, capsys,
                                                               monkeypatch):
    from cmvlab import qwalk

    def no_compute(*args, **kwargs):
        raise AssertionError("survival_J must be checked before any evolution")

    monkeypatch.setattr(qwalk, "evolve", no_compute)
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "hadamard"}, "steps": 4000, "survival_J": -1,
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'survival_J'" in capsys.readouterr().err


def test_walk_rejects_record_times_past_steps_before_any_evolution(tmp_path, capsys,
                                                                  monkeypatch):
    from cmvlab import qwalk

    def no_compute(*args, **kwargs):
        raise AssertionError("record_times must be checked before any evolution")

    monkeypatch.setattr(qwalk, "evolve", no_compute)
    cfg = write_config(tmp_path, "w.json", {
        "coins": {"kind": "hadamard"}, "steps": 4, "record_times": [2, 8],
    })
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'record_times'" in err and "0..4" in err


def test_readme_common_flags_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = readme[readme.index("Common flags:"):]
    para = para[:para.index("\n\n")]
    documented = {m.split()[0] for m in re.findall(r"`(--[^`]*)`", para)}
    flags = {opt for a in _build_parser()._actions for opt in a.option_strings
             if opt.startswith("--") and opt != "--help"}
    assert flags == documented


def test_options_may_precede_the_command(tmp_path):
    cfg = write_config(tmp_path, "w.json", {"coins": {"kind": "hadamard"}, "steps": 4})
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(["--config", cfg, "--out", str(first), "--seed", "2", "walk"]) == 0
    assert main(["walk", "--config", cfg, "--out", str(last), "--seed", "2"]) == 0
    for name in ("distribution.csv", "survival.csv", "manifest.json"):
        assert (first / name).read_bytes() == (last / name).read_bytes()


def test_unknown_command_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {"coins": {"kind": "hadamard"}})
    with pytest.raises(SystemExit) as exc:
        main(["wander", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'wander'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_field_lists_match_the_tables():
    from cmvlab.cli import _COMMANDS, _REQUIRED

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, (_, table) in _COMMANDS.items():
        block = readme[readme.index(f"`{name}` reads these fields"):]
        block = block[block.index("\n* "):]
        block = block[:block.index("\n\n", 1)]
        documented = {}
        for bullet in re.split(r"\n(?=\* )", block.strip()):
            m = re.match(r"\* `(\w+)` \((?:required|default `([^`]*)`)", bullet)
            assert m, (name, bullet)
            documented[m[1]] = (m[2], " ".join(bullet.split()))
        assert list(documented) == list(table), name
        for field, (_, default, *check) in table.items():
            text, bullet = documented[field]
            if default is _REQUIRED:
                assert text is None, (name, field)
            else:
                assert text is not None and json.loads(text) == default, (name, field)
            if check:  # the bound, in the words of the error message
                assert check[1] in bullet, (name, field, check[1])


def test_readme_example_configs_fit_one_subcommand():
    from cmvlab.cli import _COMMANDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    section = section[:section.index("\n## ")]
    examples = re.findall(r"```json\n(.*?)```", section, re.S)
    assert examples
    for text in examples:
        keys = set(json.loads(text))
        fits = [name for name, (_, fields) in _COMMANDS.items() if keys <= set(fields)]
        assert len(fits) == 1, (sorted(keys), fits)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library example"):]
    exec(re.search(r"```python\n(.*?)```", section, re.S)[1], {})


@pytest.mark.parametrize("command, config, override, unknown", [
    ("bands", {"sequence": {"kind": "random_periodic", "q": 4}, "q": 4, "kpoints": 4},
     None, "kpoints"),
    ("bands", {"sequence": {"kind": "random_periodic", "q": 4}, "q": 4},
     "sequence.q=8", "sequence.q"),
    ("walk", {"coins": {"kind": "hadamard"}, "steps": 4, "survivalJ": 1}, None,
     "survivalJ"),
    # nested spec objects
    ("walk", {"coins": {"kind": "hadamard"}, "steps": 4, "initial": {"spn": "-"}}, None,
     "spn"),
    ("bands", {"sequence": {"kind": "constant", "value": [0.1, 0.0], "vlaue": 1}, "q": 2},
     None, "vlaue"),
    ("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"],
                                           "decay": {"form": "geometric", "bsae": 9}}},
     None, "bsae"),
    ("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"], "level": 3}},
     None, "level"),
    ("walk", {"coins": {"kind": "hadamard", "matrix": 3}, "steps": 4}, None, "matrix"),
    ("sieve-check", {"sequence": {"kind": "random_periodic", "q": 4, "seed": 3}, "dim": 16},
     None, "seed"),
    ("bands", {"sequence": {"kind": "periodic_table", "values": [[0.1, 0.0]], "q": 2},
               "q": 2}, None, "q"),
])
def test_unknown_config_fields_exit_2_before_any_compute(tmp_path, capsys, monkeypatch,
                                                         command, config, override,
                                                         unknown):
    from cmvlab import floquet, operator, qwalk
    from cmvlab.cli import _COMMANDS

    def no_compute(*args, **kwargs):
        raise AssertionError("unknown fields must be refused before any compute")

    monkeypatch.setattr(floquet, "band_stacks", no_compute)
    monkeypatch.setattr(floquet, "periodic_spectrum", no_compute)
    monkeypatch.setattr(qwalk, "evolve", no_compute)
    monkeypatch.setattr(T, "lyapunov", no_compute)
    monkeypatch.setattr(operator, "verify_sieve_square", no_compute)
    out = tmp_path / "o"
    argv = [command, "--config", write_config(tmp_path, "c.json", config), "--out", str(out)]
    if override:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    known = NESTED_KNOWN.get(unknown, _COMMANDS[command][1])
    assert repr(unknown) in err and f"known fields: {', '.join(known)}" in err
    assert not out.exists()


# the fields each nested unknown key above sits next to
NESTED_KNOWN = {
    "spn": ("site", "spin"),
    "vlaue": ("kind", "value"),
    "bsae": ("form", "base"),
    "level": ("kind", "base_amp", "q0", "levels", "decay"),
    "matrix": ("kind",),
    "seed": ("kind", "q", "radius"),
    "q": ("kind", "values"),
}


@pytest.mark.parametrize("command, config, field", [
    # explicit ids: these cases are named by the config and the bare field name
    pytest.param("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"], "q0": [2]}},
                 "family.q0", id="approx-config0-q0"),
    pytest.param("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"],
                                                       "levels": [3]}},
                 "family.levels", id="approx-config1-levels"),
    pytest.param("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"],
                                                       "base_amp": "0.1"}},
                 "family.base_amp", id="approx-config2-base_amp"),
    pytest.param("approx", {**APPROX_SMALL, "family": {
        **APPROX_SMALL["family"], "decay": {"form": "geometric", "base": [4]}}},
                 "family.decay.base", id="approx-config3-decay.base"),
    pytest.param("approx", {**APPROX_SMALL, "family": {**APPROX_SMALL["family"], "decay": 4}},
                 "family.decay", id="approx-config4-decay"),
    pytest.param("lyapunov", {"sequence": {"kind": "quasiperiodic", "amplitude": 0.5,
                                           "frequency": [0.3], "phase": 0.0},
                              "grid_size": 8, "n_steps": 1000},
                 "sequence.frequency", id="lyapunov-config5-frequency"),
    pytest.param("lyapunov", {"sequence": {"kind": "quasiperiodic", "amplitude": {"a": 1},
                                           "frequency": 0.3, "phase": 0.0},
                              "grid_size": 8, "n_steps": 1000},
                 "sequence.amplitude", id="lyapunov-config6-amplitude"),
    ("lyapunov", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                  "grid_size": 8, "n_steps": 1000, "epsilon_L": [0.01]}, "epsilon_L"),
    ("sieve-check", {"sequence": {"kind": "random_periodic", "q": 4, "radius": [0.5]},
                     "dim": 16}, "sequence.radius"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [[0.9]]}, "r_values"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": 0.9}, "r_values"),
    pytest.param("sieve-check", {"sequence": {"kind": "constant", "value": ["a", 0]},
                                 "dim": 8},
                 "sequence.value", id="sieve-check-config11-value"),
    pytest.param("sieve-check", {"sequence": {"kind": "periodic_table",
                                              "values": [[0.1, [0]]]}, "dim": 8},
                 "sequence.values", id="sieve-check-config12-values"),
    pytest.param("sieve-check", {"sequence": {"kind": "periodic_table", "values": 0.3},
                                 "dim": 8},
                 "sequence.values", id="sieve-check-config13-values"),
    ("walk", {"coins": {"kind": "cgmv_table", "gammas": [["x", 0]]}, "steps": 4},
     "coins.gammas"),
    ("walk", {"coins": {"kind": "hadamard"}, "steps": 4, "initial": [0]}, "initial"),
    ("walk", {"coins": {"kind": "hadamard"}, "steps": 4, "record_times": 2},
     "record_times"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [0.9], "arc_set": 5},
     "arc_set"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [0.9],
                     "arc_set": [[0.0, [1.0]]]}, "arc_set"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [0.9, -0.5]}, "r_values"),
    ("sieve-check", {"sequence": {"kind": "random_periodic", "q": -2}, "dim": 16},
     "sequence.q"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": []}, "r_values"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [math.nan]}, "r_values"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [0.9],
                     "arc_set": [[0.0, math.nan]]}, "arc_set"),
    ("lyapunov", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                  "grid_size": 8, "n_steps": 1000, "epsilon_L": math.nan}, "epsilon_L"),
    # an integer literal beyond the float range
    ("lyapunov", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                  "grid_size": 8, "n_steps": 1000, "epsilon_L": 10 ** 400}, "epsilon_L"),
    ("walk", {"coins": {"kind": "cgmv_table", "gammas": [[0.1, -10 ** 400]]}, "steps": 4},
     "coins.gammas"),
    # weyl-defect bounds, checked before the window solver sees them
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": -3, "dim": 64, "r_values": [0.9]}, "samples"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 2, "r_values": [0.9]}, "dim"),
    ("weyl-defect", {"sequence": {"kind": "constant", "value": [0.0, 0.0]},
                     "samples": 16, "dim": 64, "r_values": [1.0]}, "r_values"),
    # coin entries: non-finite numbers, strings, booleans and one-element pairs
    ("walk", {"coins": {"kind": "constant", "matrix": [[[math.nan, 0], [0, 0]],
                                                       [[0, 0], [1, 0]]]}, "steps": 4},
     "coins.matrix"),
    ("walk", {"coins": {"kind": "table", "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                                      [[[math.inf, 0], [0, 0]],
                                                       [[0, 0], [1, 0]]]]}, "steps": 4},
     "coins.matrices"),
    ("walk", {"coins": {"kind": "constant", "matrix": [[["1"], [0, 0]], [[0, 0], ["1"]]]},
              "steps": 4}, "coins.matrix"),
    ("walk", {"coins": {"kind": "constant", "matrix": [[[True, False], [0, 0]],
                                                       [[0, 0], [True, False]]]},
              "steps": 4}, "coins.matrix"),
    ("walk", {"coins": {"kind": "table", "matrices": [[[[1], [0, 0]], [[0, 0], [1]]]]},
              "steps": 4}, "coins.matrices"),
    # a sequence kind that does not exist
    ("lyapunov", {"sequence": {"kind": "mystery"}, "grid_size": 8, "n_steps": 1000},
     "sequence.kind"),
])
def test_malformed_config_fields_exit_2(tmp_path, capsys, command, config, field):
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"'{field}'" in capsys.readouterr().err
