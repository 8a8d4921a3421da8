"""Batch front-end: every pipeline as a subcommand with reproducible outputs.

Each run reads one JSON config (flags override config fields), checks every
field against the subcommand's field table before any work, writes numeric
CSVs at full 17-significant-digit precision plus JSON reports into the output
directory, and stamps a manifest.json recording the command, parameters,
seed, tool version, and output list.  Identical manifests reproduce
byte-identical numeric outputs.

This module owns the config format: the field parsers and tables, and the
builders of sequences and families from checked values.

Exit codes: 0 success, 2 validation error (a config too large for memory
too), 3 numerical-stability error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from . import coefficients as coeffs
from . import floquet, operator, qwalk, transfer, weyl
from .errors import NumericalInstabilityError, certificates
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


def _out_file(out_dir: str, name: str) -> str:
    """The path of an output file.  The directory is made at the first write,
    so a run refused during validation leaves none behind."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_csv(manifest: RunManifest, out_dir: str, name: str, columns: dict) -> None:
    """A CSV of named columns: an integer column prints as %d, any other at
    17 significant digits (%.17g), so every double reads back exactly."""
    cols = [np.asarray(c) for c in columns.values()]
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\n"
    with open(_out_file(out_dir, name), "w") as fh:
        fh.write("# manifest: manifest.json\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in zip(*(c.tolist() for c in cols)))
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


# ---------------------------------------------------------------------------
# the config format: field parsers and field tables
# ---------------------------------------------------------------------------

def _as_int(name: str, value) -> int:
    """A config integer of magnitude at most 2**62, so sites computed from it
    stay inside int64; lists, dicts, bools and non-integral floats are refused."""
    n = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"config field '{name}' must be an integer, got {value!r}")
    if abs(n) > 2 ** 62:
        raise ValueError(f"config field '{name}' must have magnitude at most 2**62, "
                         f"got {value!r}")
    return n


def _as_float(name: str, value) -> float:
    """A finite config number; lists, dicts, strings, bools, NaN, the
    infinities and integers beyond the float range are refused."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # refuses NaN, the infinities and huge ints
            return float(value)
        raise ValueError(f"config field '{name}' must be finite, got {value!r}")
    raise ValueError(f"config field '{name}' must be a number, got {value!r}")


def _as_pair(name: str, pair) -> tuple[float, float]:
    """A config pair of numbers, such as [re, im] or [lo, hi]."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"config field '{name}' must be a pair of numbers, got {pair!r}")
    return _as_float(name, pair[0]), _as_float(name, pair[1])


def _as_complex(name: str, pair) -> complex:
    return complex(*_as_pair(name, pair))


_REQUIRED = object()  # the default of a field that must be given


def _read_fields(label: str, path: str, d, table: dict, tag: Optional[str] = None) -> dict:
    """The values of the config object ``d`` at the dotted ``path`` as a plain
    dict.  ``table`` maps each field name to (parser, default) or (parser,
    default, range predicate, the phrase completing "must be ..."); a parser
    takes the field's dotted name and its JSON value.  With a ``tag``,
    ``table`` maps each value of ``d[tag]`` to the field table of that kind.

    Unknown keys are refused, listing the known ones in table order; an absent
    or null field takes its default; messages name fields by dotted path.
    """
    if not isinstance(d, dict):
        raise ValueError(f"config field '{path}' must be an object, got {d!r}")
    prefix, out = f"{path}." if path else "", {}
    if tag is not None:
        kind = out[tag] = d.get(tag)
        if not isinstance(kind, str) or kind not in table:
            raise ValueError(f"config field '{prefix}{tag}' must be one of "
                             f"{', '.join(table)}, got {kind!r}")
        label, table = f"{label} ({tag} {kind!r})", table[kind]
    unknown = sorted(set(d) - {*out, *table})
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(map(repr, unknown))} in {label}; "
                         f"known fields: {', '.join([*out, *table])}")
    for key, (parse, default, *check) in table.items():
        name, value = prefix + key, d.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ValueError(f"{label} is missing the field '{name}'")
            value = default
        else:
            value = parse(name, value)
            if check and not check[0](value):
                raise ValueError(f"config field '{name}' must be {check[1]}, "
                                 f"got {reprlib.repr(value)}")
        out[key] = value
    return out


def _nested(table: dict, tag: Optional[str] = None) -> Callable:
    """The parser of a config object read by ``_read_fields``."""
    return lambda name, d: _read_fields(f"'{name}'", name, d, table, tag)


def _list(parse: Callable) -> Callable:
    """The parser of a JSON list whose entries ``parse`` reads."""
    def read(name: str, value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"config field '{name}' must be a list, got {value!r}")
        return [parse(name, v) for v in value]
    return read


def _at_least(m: int) -> tuple[Callable, str]:
    return (lambda n: n >= m), f">= {m}"


# range predicates with their phrases
_UNIT = (lambda x: 0.0 <= x < 1.0), "in [0, 1)"
_EVEN = (lambda n: n >= 2 and n % 2 == 0), "a positive even integer"
_IN_DISK = (lambda v: bool(v) and max(map(abs, v)) < 1.0), "a nonempty list inside the unit disk"

_DECAY_FORMS = {"gaussian": {}, "geometric": {"base": (_as_float, 4.0, lambda b: b > 1.0, "> 1")}}

_FAMILY = {"pt_family": {
    "base_amp": (_as_float, _REQUIRED, *_UNIT),
    "q0": (_as_int, 2, *_EVEN),
    "levels": (_as_int, 3, *_at_least(0)),
    "decay": (_nested(_DECAY_FORMS, "form"), {"form": "gaussian"}),
}}

_SEQUENCE_KINDS = {
    "constant": {"value": (_as_complex, _REQUIRED, lambda a: abs(a) < 1.0, "inside the unit disk")},
    "quasiperiodic": {
        "amplitude": (_as_float, _REQUIRED, *_UNIT),
        "frequency": (_as_float, _REQUIRED),
        "phase": (_as_float, _REQUIRED),
    },
    "periodic_table": {"values": (_list(_as_complex), _REQUIRED, *_IN_DISK)},
    **_FAMILY,
    "random_periodic": {"q": (_as_int, 4, *_at_least(1)), "radius": (_as_float, 0.5, *_UNIT)},
}


def _physical_memory() -> int:
    """Bytes of physical memory: the bound on the arrays a config may ask for."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _family(v: dict, approx: bool = False) -> coeffs.LimitPeriodicFamily:
    """The family of validated ``pt_family`` values.

    A family whose complex arrays would not fit in physical memory is refused
    before any stage table is built: the stage tables, fewer than 2 q values
    for the largest period q = q0 * 2**levels, and for ``approx`` the two
    dense (2q)^2 Floquet matrices of the spectrum at 2q.
    """
    q, memory = v["q0"] * 2 ** v["levels"], _physical_memory()
    need = 16 * (2 * (2 * q) ** 2 if approx else 2 * q)
    if q <= 2 ** 62 and need > memory:  # larger q: the constructor's own refusal
        raise ValueError(f"the pt_family with q0 = {v['q0']}, levels = {v['levels']} needs "
                         f"{need / 2 ** 30:.3g} GiB for its largest period q0 * 2**levels "
                         f"= {q}, more than the {memory / 2 ** 30:.3g} GiB of physical memory")
    base_amp, q0, decay = v["base_amp"], v["q0"], None
    if v["decay"]["form"] == "geometric":
        base = v["decay"]["base"]
        decay = lambda n: base_amp * base ** (-(q0 * 2 ** (n + 1)))  # noqa: E731
    return coeffs.pastur_tkachenko_family(base_amp, decay=decay, q0=q0, levels=v["levels"])


def _sequence(v: dict, seed: int) -> coeffs.CoefficientSequence:
    """The sequence of validated ``_SEQUENCE_KINDS`` values, random tables
    drawn from ``seed``."""
    if v["kind"] == "constant":
        return coeffs.constant_seq(v["value"])
    if v["kind"] == "quasiperiodic":
        return coeffs.quasiperiodic_seq(v["amplitude"], v["frequency"], v["phase"])
    if v["kind"] == "periodic_table":
        return coeffs.periodic_table_seq(v["values"])
    if v["kind"] == "random_periodic":
        rng = np.random.default_rng(seed)
        vals = v["radius"] * rng.random(v["q"]) * np.exp(2j * math.pi * rng.random(v["q"]))
        return coeffs.periodic_table_seq(vals)
    return _family(v).limit


def _coin_table(name: str, mats) -> np.ndarray:
    """A nonempty list of 2x2 unitary coins of [re, im] pairs, as a (P, 2, 2) array."""
    if not isinstance(mats, list) or not mats:
        raise ValueError(f"config field '{name}' must be a nonempty list, got {mats!r}")
    for site, m in enumerate(mats):
        if not (isinstance(m, list) and len(m) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in m)):
            raise ValueError(f"config field '{name}': coin at site {site} is malformed: "
                             "expected a 2x2 table of [re, im] pairs")
    table = np.array([[[_as_complex(name, x) for x in row] for row in m] for m in mats])
    try:
        return qwalk._unitary(table, np.arange(len(table)))
    except ValueError as exc:
        raise ValueError(f"config field '{name}': {exc}") from None


def _walk_coins(v: dict) -> qwalk.CoinSequence:
    """The coins of validated ``coins`` values; a constant coin is a table of one."""
    if v["kind"] == "cgmv_table":
        return qwalk.cgmv_coins(coeffs.periodic_table_seq(v["gammas"]))
    table = v.get("matrix", v.get("matrices"))
    if table is None:
        return qwalk.identity_coins() if v["kind"] == "identity" else qwalk.hadamard_coins()
    return qwalk.table_coins(table)


# ---------------------------------------------------------------------------
# subcommands: each reads the validated values of its field table
# ---------------------------------------------------------------------------

def _cmd_bands(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence(cfg["sequence"], manifest.seed)
    q, k_points = cfg["q"], cfg["k_points"]

    # strictly interior k grid (band eigenvalues may degenerate at 0 and pi/q)
    ks = (np.arange(k_points) + 0.5) * (math.pi / q) / k_points
    # one stack of k at a time (``floquet.band_stacks``): the eigenvectors are
    # dropped once the velocities are read, so memory stays within the
    # stack's entry budget whatever k_points is
    z = np.empty((k_points, q), dtype=complex)
    dz = np.empty((k_points, q), dtype=complex)
    with certificates() as worst:
        for s, zs, u in floquet.band_stacks(seq, q, ks):
            z[s], dz[s] = zs, floquet.band_derivative(seq, q, ks[s], u)
        n = np.tile(np.arange(q), k_points)
        _write_csv(manifest, out_dir, "bands.csv", {
            "q": np.full(n.size, q), "n": n, "k": np.repeat(ks, q),
            "re_z": z.real.ravel(), "im_z": z.imag.ravel(),
            "re_dzdk": dz.real.ravel(), "im_dzdk": dz.imag.ravel(),
        })
        arcs = floquet.periodic_spectrum(seq, q)
    _write_json(manifest, out_dir, "band_arcs.json",
                {**arcs.to_json(), "measure": arcs.measure(), "q": q, "diagnostics": worst})
    _write_csv(manifest, out_dir, "band_arcs.csv", {"lo": arcs.arcs[:, 0], "hi": arcs.arcs[:, 1]})


def _zero_set_sweep(seq: coeffs.CoefficientSequence, cfg: dict):
    """The ``grid_size`` angles, the exponent at each from ``n_steps`` sites,
    and the grid arcs where it is below ``epsilon_L``."""
    thetas = np.arange(cfg["grid_size"]) * (TWO_PI / cfg["grid_size"])
    vals = transfer.lyapunov(seq, np.exp(1j * thetas), cfg["n_steps"])
    return thetas, vals, transfer.arcs_from_grid(thetas, vals, cfg["epsilon_L"])


def _cmd_lyapunov(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence(cfg["sequence"], manifest.seed)
    grid_size, n_steps, eps_L = cfg["grid_size"], cfg["n_steps"], cfg["epsilon_L"]

    with certificates() as kept:
        thetas, vals, z_arcs = _zero_set_sweep(seq, cfg)
    _write_csv(manifest, out_dir, "lyapunov.csv", {
        "theta": thetas, "L": vals,
        "N": np.full(grid_size, n_steps), "epsilon": np.full(grid_size, eps_L),
    })
    report = {
        "theta": [float(t) for t in thetas],
        "L": [float(v) for v in vals],
        "N": n_steps,
        "epsilon_L": eps_L,
    }
    if "half_orbit" in kept:  # Birkhoff estimates: compare with the same pass at N' < N
        n_half, half_vals = kept["half_orbit"]
        delta = np.abs(vals - half_vals)
        i = int(np.argmax(delta))
        report["diagnostics"] = {
            "lanes": transfer._lane_count(grid_size, n_steps),
            "half_N": n_half,
            "max_abs_delta": {"value": float(delta[i]), "theta": float(thetas[i])},
            "zero_set_flips": int(np.sum((vals < eps_L) != (half_vals < eps_L))),
        }
    _write_json(manifest, out_dir, "lyapunov.json", report)
    _write_json(manifest, out_dir, "zero_set.json",
                {**z_arcs.to_json(), "measure": z_arcs.measure(),
                 "N": n_steps, "epsilon_L": eps_L})
    _write_csv(manifest, out_dir, "zero_set.csv",
               {"lo": z_arcs.arcs[:, 0], "hi": z_arcs.arcs[:, 1]})


def _cmd_approx(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    k_index, last = cfg["k"], cfg["family"]["levels"]  # stages 0..levels
    if not 0 <= k_index <= last:
        raise ValueError(f"config field 'k' must lie in 0..{last}, got {k_index}")
    family = _family(cfg["family"], approx=True)
    _, _, z_est = _zero_set_sweep(family.limit, cfg)

    periods = family.periods()
    stages, levels, stage_arcs = family.stages, [], []
    for n, (qn, stage) in enumerate(zip(periods, stages)):
        # unresolved where the increment rounds away: stage n's table over
        # one period is stage n - 1's, bit for bit
        resolved = n == 0 or (stage.window(0, qn).tobytes()
                              != stages[n - 1].window(0, qn).tobytes())
        with certificates() as worst:
            arcs_n = floquet.periodic_spectrum(stage, qn)
            sigma_2q = floquet.periodic_spectrum(coeffs.periodize(family.limit, 2 * qn), 2 * qn)
        stage_arcs.append(arcs_n)
        levels.append({
            "q": qn,
            "sigma_measure": arcs_n.measure(),
            "sigma2q_minus_Z": sigma_2q.diff_measure(z_est),
            "increment_resolved": resolved,
            "diagnostics": worst,
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
        "N": cfg["n_steps"],
        "epsilon_L": cfg["epsilon_L"],
        "k": k_index,
    })


def _cmd_walk(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    coins = _walk_coins(cfg["coins"])
    steps, J, record = cfg["steps"], cfg["survival_J"], cfg["record_times"]
    if record is None:
        record = sorted({steps // 4, steps // 2, steps}) if steps else [0]
    if any(not 0 <= t <= steps for t in record):
        raise ValueError(f"config field 'record_times' must lie in 0..{steps}, got {record}")

    # one pass: each record time continues from the previous checkpoint
    state = qwalk.WalkState.delta(cfg["initial"]["site"], cfg["initial"]["spin"])
    walk = qwalk.build_walk(coins, (state.n_lo, state.n_hi))
    t_done = 0
    dist = {"t": [], "n": [], "p_plus": [], "p_minus": []}
    surv = {"t": [], "survival": []}
    drifts = []
    for t in sorted(set(record + [steps])):
        state = qwalk.evolve(state, walk, t - t_done)
        # the drift from t = 0 that evolve, and every state, holds to 1e-10
        drifts.append({"t": t, "value": abs(state.norm2() - 1.0), "tol": qwalk._NORM_TOL})
        t_done = t
        p = coeffs._abs2(state.amplitudes)
        rows = np.flatnonzero(np.any(p > 0, axis=1))
        dist["t"].append(np.full(rows.size, t))
        dist["n"].append(state.n_lo + rows)
        dist["p_plus"].append(p[rows, 0])
        dist["p_minus"].append(p[rows, 1])
        surv["t"].append(t)
        surv["survival"].append(state.survival(J))
    dist = {col: np.concatenate(parts) for col, parts in dist.items()}
    _write_csv(manifest, out_dir, "distribution.csv", dist)
    _write_csv(manifest, out_dir, "survival.csv", surv)
    worst = max((d["value"] / d["tol"], d["t"]) for d in drifts)
    _write_json(manifest, out_dir, "walk_report.json", {"diagnostics": {
        "norm_drift": drifts,
        "max_norm_drift_ratio": {"value": worst[0], "t": worst[1]},
    }})


def _cmd_sieve_check(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence(cfg["sequence"], manifest.seed)
    res = operator.verify_sieve_square(seq, cfg["dim"])
    name = max(res, key=res.get)  # the first of the largest
    worst = {"value": res[name], "tol": operator._SIEVE_TOL, "name": name}
    _write_json(manifest, out_dir, "sieve_check.json",
                {**res, "dim": cfg["dim"], "diagnostics": {"max_square_residual": worst}})


def _cmd_weyl_defect(cfg: dict, manifest: RunManifest, out_dir: str) -> None:
    seq = _sequence(cfg["sequence"], manifest.seed)
    arcs = cfg["arc_set"]
    S = CircleArcSet.full_circle() if arcs == "full" else CircleArcSet.from_arcs(arcs)

    angles = S.sample(cfg["samples"])
    thetas = np.tile(angles, len(cfg["r_values"]))
    rs = np.repeat(cfg["r_values"], len(angles))
    defect = weyl._defects(seq, cfg["k"], thetas, rs, cfg["dim"])
    _write_csv(manifest, out_dir, "weyl_defect.csv", {"theta": thetas, "r": rs, "defect": defect})


_SEQUENCE = (_nested(_SEQUENCE_KINDS, "kind"), _REQUIRED)

_SWEEP = {
    "n_steps": (_as_int, 100_000, *_at_least(1000)),
    "epsilon_L": (_as_float, 1e-2, lambda e: e > 0, "positive"),
}

# each subcommand and the field table of its config (see _read_fields)
_COMMANDS = {
    "bands": (_cmd_bands, {
        "sequence": _SEQUENCE,
        "q": (_as_int, 2, *_EVEN),
        "k_points": (_as_int, 64, *_at_least(2)),
    }),
    "lyapunov": (_cmd_lyapunov, {
        "sequence": _SEQUENCE,
        "grid_size": (_as_int, 512, *_at_least(8)),
        **_SWEEP,
    }),
    "approx": (_cmd_approx, {
        "family": (_nested(_FAMILY, "kind"), _REQUIRED),
        "k": (_as_int, 0),  # a stage index, 0..family.levels
        "grid_size": (_as_int, 4096, *_at_least(8)),
        **_SWEEP,
    }),
    "walk": (_cmd_walk, {
        "coins": (_nested({
            "identity": {},
            "hadamard": {},
            "constant": {"matrix": (lambda name, m: _coin_table(name, [m]), _REQUIRED)},
            "table": {"matrices": (_coin_table, _REQUIRED)},
            "cgmv_table": {"gammas": (_list(_as_complex), _REQUIRED, *_IN_DISK)},
        }, "kind"), _REQUIRED),
        "steps": (_as_int, 100, *_at_least(0)),
        "initial": (_nested({
            "site": (_as_int, 0),
            "spin": (lambda name, s: s, "+", lambda s: s in ("+", "-"), "'+' or '-'"),
        }), {"site": 0, "spin": "+"}),
        "survival_J": (_as_int, 5, *_at_least(0)),
        "record_times": (_list(_as_int), None),  # default and range depend on steps
    }),
    "sieve-check": (_cmd_sieve_check, {
        "sequence": _SEQUENCE,
        "dim": (_as_int, 16, lambda n: n > 0 and n % 4 == 0, "a positive multiple of 4"),
    }),
    "weyl-defect": (_cmd_weyl_defect, {
        "sequence": _SEQUENCE,
        "k": (_as_int, 0),
        "samples": (_as_int, 32, *_at_least(1)),
        "dim": (_as_int, 512, *_at_least(4)),
        "r_values": (_list(_as_float), [0.9, 0.99],
                           lambda rs: rs and all(0.0 <= r < 1.0 - weyl._EDGE_MARGIN for r in rs),
                           "a nonempty list of radii in [0, 1 - 1e-6)"),
        "arc_set": (lambda name, v: v if v == "full" else _list(_as_pair)(name, v), "full",
                    lambda s: s == "full" or (s and all(lo <= hi for lo, hi in s)),
                    "\"full\" or a nonempty list of arcs [lo, hi] with lo <= hi"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmvlab",
        description="CMV operator toolkit: bands, Lyapunov sweeps, "
                    "limit-periodic reports, quantum walks",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the pipeline to run")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=JSON",
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
        run, table = _COMMANDS[args.command]
        values = _read_fields(f"the {args.command} config", "", cfg, table)
        probe = os.path.abspath(args.out)  # refuse an --out that cannot be a directory
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(f"--out {args.out!r} cannot be a directory: {probe!r} is a file")
        manifest = RunManifest(command=args.command, parameters=cfg, seed=args.seed)
        run(values, manifest, args.out)
        manifest.write(args.out)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the {args.command} config needs more memory than is available "
              f"({exc or 'MemoryError'})", file=sys.stderr)
        return 2
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
