"""Batch front-end: every pipeline as a subcommand with reproducible outputs.

Each run reads one JSON config (flags override config fields; a top-level
field the subcommand does not read is refused before any work), writes numeric
CSVs at full 17-significant-digit precision plus JSON reports into the output
directory, and stamps a manifest.json recording the command, parameters,
seed, tool version, and output list.  Identical manifests reproduce
byte-identical numeric outputs.

Exit codes: 0 success, 2 validation error, 3 numerical-stability error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import coefficients as coeffs
from .coefficients import _as_complex, _as_float, _as_int, _check_keys
from . import floquet, operator, qwalk, transfer, weyl
from .errors import NumericalInstabilityError
from .spectral_sets import CircleArcSet, TWO_PI

__all__ = ["main"]


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int
    tool_version: str = __version__
    outputs: list = field(default_factory=list)

    def write(self, out_dir: str) -> None:
        with open(_out_file(out_dir, "manifest.json"), "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _out_file(out_dir: str, name: str) -> str:
    """The path of an output file.  The directory is made at the first write,
    so a run refused during validation leaves none behind."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_csv(manifest: RunManifest, out_dir: str, name: str,
               header: list[str], rows) -> None:
    with open(_out_file(out_dir, name), "w") as fh:
        fh.write("# manifest: manifest.json\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    manifest.outputs.append(name)


def _write_json(manifest: RunManifest, out_dir: str, name: str, payload: dict
                ) -> None:
    payload = dict(payload)
    payload["manifest"] = "manifest.json"
    with open(_out_file(out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.outputs.append(name)


def _load_config(path: str) -> dict:
    if path is None:
        raise ValueError("--config PATH is required")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON ({path}, line {exc.lineno}): "
                         f"{exc.msg}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object ({path})")
    return cfg


def _sequence_from_config(cfg: dict, seed: int) -> coeffs.CoefficientSequence:
    d = cfg.get("sequence")
    if not isinstance(d, dict):
        raise ValueError("config field 'sequence' must be an object")
    if d.get("kind") == "random_periodic":
        _check_keys("'random_periodic' spec", d, ("kind", "q", "radius"))
        q = _as_int("sequence.q", d.get("q", 4))
        if q < 1:
            raise ValueError(f"config field 'sequence.q' must be >= 1, got {q}")
        radius = _as_float("sequence.radius", d.get("radius", 0.5))
        if not 0.0 <= radius < 1.0:
            raise ValueError(f"sequence.radius must lie in [0, 1), got {radius}")
        rng = np.random.default_rng(seed)
        vals = radius * rng.random(q) * np.exp(2j * math.pi * rng.random(q))
        return coeffs.periodic_table_seq(vals)
    return coeffs.sequence_from_spec(d)


def _require_even(name: str, value) -> int:
    value = _as_int(name, value)
    if value < 2 or value % 2 != 0:
        raise ValueError(f"config field '{name}' must be a positive even integer "
                         f"(got {value})")
    return value


def _lyapunov_fields(cfg: dict) -> tuple[int, float]:
    """Birkhoff length and zero-set threshold of a Lyapunov sweep."""
    n_steps = _as_int("n_steps", cfg.get("n_steps", 100_000))
    if n_steps < 1_000:
        raise ValueError(f"config field 'n_steps' must be >= 1000, got {n_steps}")
    eps_L = _as_float("epsilon_L", cfg.get("epsilon_L", 1e-2))
    if eps_L <= 0:
        raise ValueError(f"config field 'epsilon_L' must be positive, got {eps_L}")
    return n_steps, eps_L


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_bands(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence_from_config(cfg, manifest.seed)
    q = _require_even("q", cfg.get("q", 2))
    k_points = _as_int("k_points", cfg.get("k_points", 64))
    if k_points < 2:
        raise ValueError(f"config field 'k_points' must be >= 2, got {k_points}")

    # strictly interior k grid (band eigenvalues may degenerate at 0 and pi/q)
    ks = (np.arange(k_points) + 0.5) * (math.pi / q) / k_points
    z, u, v = floquet.band_eigens(seq, q, ks)
    dz = floquet.band_derivative(seq, q, ks, u, v)
    n = np.tile(np.arange(q), k_points)
    rows = zip(np.full(n.size, q), n, np.repeat(ks, q), z.real.ravel(), z.imag.ravel(),
               dz.real.ravel(), dz.imag.ravel())
    _write_csv(manifest, out_dir, "bands.csv",
               ["q", "n", "k", "re_z", "im_z", "re_dzdk", "im_dzdk"], rows)

    arcs = floquet.periodic_spectrum(seq, q)
    _write_json(manifest, out_dir, "band_arcs.json",
                {**arcs.to_json(), "measure": arcs.measure(), "q": q})
    _write_csv(manifest, out_dir, "band_arcs.csv", ["lo", "hi"],
               [tuple(a) for a in arcs.arcs])


def _cmd_lyapunov(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence_from_config(cfg, manifest.seed)
    grid_size = _as_int("grid_size", cfg.get("grid_size", 512))
    if grid_size < 8:
        raise ValueError(f"config field 'grid_size' must be >= 8, got {grid_size}")
    n_steps, eps_L = _lyapunov_fields(cfg)

    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    with transfer.half_orbit_estimates() as half:
        vals = transfer.lyapunov(seq, np.exp(1j * thetas), n_steps)
    _write_csv(manifest, out_dir, "lyapunov.csv",
               ["theta", "L", "N", "epsilon"],
               [(t, v, n_steps, eps_L) for t, v in zip(thetas, vals)])
    report = {
        "theta": [float(t) for t in thetas],
        "L": [float(v) for v in vals],
        "N": n_steps,
        "epsilon_L": eps_L,
    }
    if half:  # Birkhoff estimates: compare with the same pass at N' < N
        n_half, half_vals = half[0]
        delta = np.abs(vals - half_vals)
        i = int(np.argmax(delta))
        report["diagnostics"] = {
            "half_N": n_half,
            "max_abs_delta": {"value": float(delta[i]), "theta": float(thetas[i])},
            "zero_set_flips": int(np.sum((vals < eps_L) != (half_vals < eps_L))),
        }
    _write_json(manifest, out_dir, "lyapunov.json", report)
    z_arcs = transfer.arcs_from_grid(thetas, vals, eps_L)
    _write_json(manifest, out_dir, "zero_set.json",
                {**z_arcs.to_json(), "measure": z_arcs.measure(),
                 "N": n_steps, "epsilon_L": eps_L})
    _write_csv(manifest, out_dir, "zero_set.csv", ["lo", "hi"],
               [tuple(a) for a in z_arcs.arcs])


def _cmd_approx(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    fam_spec = cfg.get("family")
    if not isinstance(fam_spec, dict):
        raise ValueError("config field 'family' must be an object")
    family = coeffs.family_from_spec(fam_spec)
    k_index = _as_int("k", cfg.get("k", 0))
    if not 0 <= k_index < len(family.stages):
        raise ValueError(f"config field 'k' must lie in 0..{len(family.stages) - 1}, "
                         f"got {k_index}")
    grid_size = _as_int("grid_size", cfg.get("grid_size", 4096))
    if grid_size < 8:
        raise ValueError(f"config field 'grid_size' must be >= 8, got {grid_size}")
    n_steps, eps_L = _lyapunov_fields(cfg)

    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    vals = transfer.lyapunov(family.limit, np.exp(1j * thetas), n_steps)
    z_est = transfer.arcs_from_grid(thetas, vals, eps_L)

    periods = family.periods()
    levels = []
    stage_arcs = []
    for qn, stage in zip(periods, family.stages):
        arcs_n = floquet.periodic_spectrum(stage, qn)
        stage_arcs.append(arcs_n)
        per2q = coeffs.periodize(family.limit, 2 * qn)
        sigma_2q = floquet.periodic_spectrum(per2q, 2 * qn)
        levels.append({
            "q": qn,
            "sigma_measure": arcs_n.measure(),
            "sigma2q_minus_Z": sigma_2q.diff_measure(z_est),
        })
    hausdorff_seq = [
        stage_arcs[i].hausdorff(stage_arcs[i + 1])
        for i in range(len(stage_arcs) - 1)
    ]
    sigma_k = stage_arcs[k_index].measure()
    verdict = coeffs.lp_sum_criterion(family, k_index, sigma_k)

    _write_json(manifest, out_dir, "approx_report.json", {
        "levels": levels,
        "lp_sum_criterion": verdict,
        "hausdorff_consecutive": hausdorff_seq,
        "zero_set_measure": z_est.measure(),
        "N": n_steps,
        "epsilon_L": eps_L,
        "k": k_index,
    })


def _coins_from_config(cfg: dict) -> qwalk.CoinSequence:
    d = cfg.get("coins")
    if not isinstance(d, dict):
        raise ValueError("config field 'coins' must be an object")
    kind = d.get("kind")
    if kind in ("identity", "hadamard"):
        _check_keys(f"{kind!r} coins", d, ("kind",))
        return qwalk.identity_coins() if kind == "identity" else qwalk.hadamard_coins()
    if kind == "constant":
        _check_keys("'constant' coins", d, ("kind", "matrix"))
        m = d.get("matrix")
        q = _coin_matrix(m, site=0)
        return qwalk.constant_coins(q)
    if kind == "table":
        _check_keys("'table' coins", d, ("kind", "matrices"))
        mats = d.get("matrices")
        if not isinstance(mats, list) or not mats:
            raise ValueError("coins.matrices must be a nonempty list")
        table = [_coin_matrix(m, site=i) for i, m in enumerate(mats)]
        p = len(table)
        return qwalk.CoinSequence(fn=lambda n: table[n % p], period=p)
    if kind == "cgmv_table":
        _check_keys("'cgmv_table' coins", d, ("kind", "gammas"))
        gs = d.get("gammas")
        if not isinstance(gs, list) or not gs:
            raise ValueError("coins.gammas must be a nonempty list")
        vals = [_as_complex("coins.gammas", g) for g in gs]
        p = len(vals)
        return qwalk.cgmv_coins(lambda n: vals[n % p], period=p)
    raise ValueError(f"unknown coins kind {kind!r}")


def _coin_matrix(m, site: int) -> np.ndarray:
    try:
        q = np.array(
            [[complex(*m[0][0]), complex(*m[0][1])],
             [complex(*m[1][0]), complex(*m[1][1])]],
            dtype=complex,
        )
    except (TypeError, IndexError, KeyError, ValueError):
        raise ValueError(
            f"coin at site {site} is malformed: expected a 2x2 table of "
            "[re, im] pairs"
        )
    res = np.max(np.abs(q @ q.conj().T - np.eye(2)))
    if res > 1e-12:
        raise ValueError(f"coin at site {site} is not unitary (residual {res:.2e})")
    return q


def _cmd_walk(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    coins = _coins_from_config(cfg)
    steps = _as_int("steps", cfg.get("steps", 100))
    if steps < 0:
        raise ValueError(f"config field 'steps' must be >= 0, got {steps}")
    init = cfg.get("initial", {"site": 0, "spin": "+"})
    if not isinstance(init, dict):
        raise ValueError(f"config field 'initial' must be an object, got {init!r}")
    _check_keys("'initial'", init, ("site", "spin"))
    site = _as_int("initial.site", init.get("site", 0))
    spin = init.get("spin", "+")
    if spin not in ("+", "-"):
        raise ValueError(f"initial.spin must be '+' or '-', got {spin!r}")
    J = _as_int("survival_J", cfg.get("survival_J", 5))
    if J < 0:
        raise ValueError(f"config field 'survival_J' must be >= 0, got {J}")
    record = cfg.get("record_times")
    if record is None:
        record = sorted({steps // 4, steps // 2, steps}) if steps else [0]
    if not isinstance(record, list):
        raise ValueError(f"config field 'record_times' must be a list, got {record!r}")
    record = [_as_int("record_times", t) for t in record]
    if any(not 0 <= t <= steps for t in record):
        raise ValueError(f"config field 'record_times' must lie in 0..{steps}, got {record}")

    # one pass: each record time continues from the previous checkpoint
    state = qwalk.WalkState.delta(site, spin)
    walk = qwalk.build_walk(coins, (state.n_lo, state.n_hi))
    t_done = 0
    dist_rows = []
    surv_rows = []
    for t in sorted(set(record + [steps])):
        state = qwalk.evolve(state, walk, t - t_done)
        t_done = t
        for j in range(state.n_lo, state.n_hi + 1):
            p_plus = abs(state.amplitude(j, "+")) ** 2
            p_minus = abs(state.amplitude(j, "-")) ** 2
            if p_plus > 0 or p_minus > 0:
                dist_rows.append((t, j, p_plus, p_minus))
        surv_rows.append((t, state.survival(J)))
    _write_csv(manifest, out_dir, "distribution.csv",
               ["t", "n", "p_plus", "p_minus"], dist_rows)
    _write_csv(manifest, out_dir, "survival.csv", ["t", "survival"], surv_rows)


def _cmd_sieve_check(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence_from_config(cfg, manifest.seed)
    dim = _as_int("dim", cfg.get("dim", 16))
    if dim % 4 != 0 or dim <= 0:
        raise ValueError(f"config field 'dim' must be a positive multiple of 4, "
                         f"got {dim}")
    res = operator.verify_sieve_square(seq, dim)
    _write_json(manifest, out_dir, "sieve_check.json", {**res, "dim": dim})


def _cmd_weyl_defect(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence_from_config(cfg, manifest.seed)
    k = _as_int("k", cfg.get("k", 0))
    samples = _as_int("samples", cfg.get("samples", 32))
    dim = _as_int("dim", cfg.get("dim", 512))
    r_values = cfg.get("r_values", [0.9, 0.99])
    if not isinstance(r_values, list):
        raise ValueError(f"config field 'r_values' must be a list, got {r_values!r}")
    r_values = [_as_float("r_values", r) for r in r_values]
    if not r_values:
        raise ValueError("config field 'r_values' must be a nonempty list")
    if any(r < 0 for r in r_values):
        raise ValueError(f"config field 'r_values' must be >= 0, got {r_values}")
    arcs_cfg = cfg.get("arc_set", "full")
    if arcs_cfg == "full":
        S = CircleArcSet.full_circle()
    elif isinstance(arcs_cfg, list) and all(
            isinstance(a, list) and len(a) == 2 for a in arcs_cfg):
        S = CircleArcSet.from_arcs([(_as_float("arc_set", lo), _as_float("arc_set", hi))
                                    for lo, hi in arcs_cfg])
    else:
        raise ValueError("config field 'arc_set' must be \"full\" or a list of "
                         f"[lo, hi] pairs, got {arcs_cfg!r}")

    angles = S.sample(samples)
    points = [(th, r) for r in r_values for th in angles]
    z = np.array([r * cmath.exp(1j * th) for th, r in points])
    mp, mm = weyl.M_coefficients(seq, k, z, dim)
    defect = np.abs(mp + mm.conj())
    rows = [(th, r, d) for (th, r), d in zip(points, defect)]
    _write_csv(manifest, out_dir, "weyl_defect.csv",
               ["theta", "r", "defect"], rows)


# each subcommand and the top-level config fields it reads
_COMMANDS = {
    "bands": (_cmd_bands, ("sequence", "q", "k_points")),
    "lyapunov": (_cmd_lyapunov, ("sequence", "grid_size", "n_steps", "epsilon_L")),
    "approx": (_cmd_approx, ("family", "k", "grid_size", "n_steps", "epsilon_L")),
    "walk": (_cmd_walk, ("coins", "steps", "initial", "survival_J", "record_times")),
    "sieve-check": (_cmd_sieve_check, ("sequence", "dim")),
    "weyl-defect": (_cmd_weyl_defect,
                    ("sequence", "k", "samples", "dim", "r_values", "arc_set")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmvlab",
        description="CMV operator toolkit: bands, Lyapunov sweeps, "
                    "limit-periodic reports, quantum walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", default=[], metavar="KEY=JSON",
                       help="override a config field, e.g. --set q=4")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for item in args.set:
            if "=" not in item:
                raise ValueError(f"--set expects KEY=JSON, got {item!r}")
            key, raw = item.split("=", 1)
            try:
                cfg[key] = json.loads(raw)
            except json.JSONDecodeError:
                cfg[key] = raw
        run, known = _COMMANDS[args.command]
        _check_keys(f"the {args.command} config", cfg, known)
        probe = os.path.abspath(args.out)  # refuse an --out that cannot be a directory
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(f"--out {args.out!r} cannot be a directory: {probe!r} is a file")
        manifest = RunManifest(
            command=args.command,
            parameters=cfg,
            seed=args.seed,
        )
        run(cfg, manifest, args.out)
        manifest.write(args.out)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
