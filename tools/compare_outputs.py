"""Compare the CLI outputs of two cmvlab source trees on the same configs.

    python tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout holding ``src/cmvlab`` (for example the parent commit,
exported with ``git archive`` into a scratch directory, and this one).  The
jobs are every ``perfbench.workloads.make_jobs`` job of every workload at each
of ``SEEDS``, the example configs of README.md and ``WIDE_GRID``, a
quasiperiodic ``lyapunov`` sweep over a grid too wide for orbit lanes, which
no other job runs, ``SHORT_ORBIT``, a quasiperiodic ``lyapunov`` sweep of 64
points over 1 000 sites, whose orbit lanes are fewer than the grid alone
allows, ``LONG_WINDOW``, a ``weyl-defect`` run on half-line
windows of 32 768 sites at radii 0.99 and 0.999, ``CUT_STACKS``, a
``bands`` run at q = 32 on 100 k, whose stacks of k end inside pole
intervals, and ``NARROW_BANDS``, a ``bands`` run on 64 k of a q = 64,
radius 0.9 table drawn from ``default_rng(64)``, whose slowest band moves at
|dz/dk| = 5.2e-10, where a rounding move of a velocity is largest relative
to its size.  Each tree runs all of them
through ``cmvlab.cli.main`` in one fresh interpreter; then, per job, the exit
codes are compared and, per output file, the script prints "identical" or the
largest numeric difference next to the largest relative one, |x - y| /
max(|x|, |y|), since a move of 5e-16 means more on a walk probability of 1e-5
than on a band angle.  A JSON file is compared key by key: the largest
difference of a shared number with its key path (and the relative one, with
its own path where that differs), then each key path added
(``+ levels[0].diagnostics``), removed (``-``) or changed in a value that is
not a number (``~``).  Other files have their numbers compared where they
agree in every character outside them, and otherwise print "text differs".
The exit status is 0 when every exit code matches and every file is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS, _table_spec, make_jobs  # noqa: E402

SEEDS = (3, 7, 11)

# a Birkhoff sweep of 2048 points: one orbit lane, its half-orbit a snapshot
WIDE_GRID = ("wide-grid-lyapunov", "lyapunov", {
    "sequence": {"kind": "quasiperiodic", "amplitude": 0.6,
                 "frequency": 0.3819660112501051, "phase": 0.25},
    "grid_size": 2048, "n_steps": 20000, "epsilon_L": 0.01,
})

# a narrow grid over a short orbit: 8 lanes of 125 sites, where 64 points
# alone would take 128
SHORT_ORBIT = ("short-orbit-lyapunov", "lyapunov", {
    **WIDE_GRID[2], "grid_size": 64, "n_steps": 1000,
})

# the windows workload's period-4 weyl-defect table near the circle, where
# every other job's window of 512 sites is far too short
LONG_WINDOW = ("long-window-weyl-defect", "weyl-defect", {
    **next(job.config for job in make_jobs("windows", SEEDS[0]) if job.command == "weyl-defect"),
    "r_values": [0.99, 0.999], "dim": 32768, "samples": 64,
})

# the bands_lp workload's q = 32 table on 100 k: its stacks of 32 k end inside
# pole intervals of 12.5 k, where every other job's 64 k end on their edges
CUT_STACKS = ("cut-stacks-bands", "bands", {
    **next(job.config for job in make_jobs("bands_lp", SEEDS[0]) if job.name == "bands-q32"),
    "k_points": 100,
})

# a q = 64, radius 0.9 table, where every other bands job's tables have
# radius 0.5: its slowest band moves at |dz/dk| = 5.2e-10
NARROW_BANDS = ("narrow-bands", "bands", {
    "sequence": _table_spec(np.random.default_rng(64), 64, 0.9), "q": 64, "k_points": 64,
})

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")

# runs a list of (name, command, config, out dir) jobs; argv: src, jobs, codes
_RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cmvlab.cli import main
with open(sys.argv[2]) as fh:
    jobs = json.load(fh)
codes = {name: main([cmd, "--config", cfg, "--out", out]) for name, cmd, cfg, out in jobs}
with open(sys.argv[3], "w") as fh:
    json.dump(codes, fh)
"""


def readme_configs() -> list[tuple[str, str, dict]]:
    """The README's example configs, each with the command of the fewest
    fields that reads every one of its keys."""
    from cmvlab.cli import _COMMANDS

    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    out = []
    for i, block in enumerate(blocks):
        cfg = json.loads(block)
        fits = [c for c, (_, table) in _COMMANDS.items() if set(cfg) <= set(table)]
        out.append((f"readme-{i}", min(fits, key=lambda c: len(_COMMANDS[c][1])), cfg))
    return out


def all_jobs() -> list[tuple[str, str, dict]]:
    jobs = [(f"{w}-s{seed}-{job.name}", job.command, job.config)
            for seed in SEEDS for w in WORKLOADS for job in make_jobs(w, seed)]
    extra = [WIDE_GRID, SHORT_ORBIT, LONG_WINDOW, CUT_STACKS, NARROW_BANDS]
    return jobs + readme_configs() + extra


def run_tree(tree: str, jobs: list, work: str, label: str) -> dict:
    listed = [(name, cmd, os.path.join(work, "configs", f"{name}.json"),
               os.path.join(work, label, name)) for name, cmd, _ in jobs]
    spec, codes = os.path.join(work, f"{label}_jobs.json"), os.path.join(work, f"{label}_codes.json")
    with open(spec, "w") as fh:
        json.dump(listed, fh)
    subprocess.run([sys.executable, "-c", _RUNNER, os.path.join(os.path.abspath(tree), "src"),
                    spec, codes], check=True)
    with open(codes) as fh:
        return json.load(fh)


def compare_file(old: str, new: str) -> str:
    if not os.path.exists(old) or not os.path.exists(new):
        return "only in " + ("new" if os.path.exists(new) else "old")
    with open(old) as fa, open(new) as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return "identical"
    if old.endswith(".json"):
        return _compare_json(json.loads(a), json.loads(b))
    if _NUMBER.split(a) != _NUMBER.split(b):
        return "text differs"
    moves = [_move(float(x), float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))
             if x != y]
    return "max numeric difference {:.3g} (relative {:.3g})".format(
        max(d for d, _ in moves), max(r for _, r in moves))


def _move(x: float, y: float) -> tuple[float, float]:
    """The absolute and the relative difference of two numbers; both are 0
    for two spellings of one number, such as 0.0 and -0.0."""
    d = abs(x - y)
    return d, d / max(abs(x), abs(y)) if d else 0.0


def _compare_json(a, b) -> str:
    """The verdict on two parsed JSON documents whose text differs: the
    largest difference of a shared number with its key path, then one line
    per key path added (+), removed (-) or changed in a value that is not a
    number (~)."""
    changes = list(_json_changes(a, b))
    moves = [(move, path) for move, path in changes if not isinstance(move, str)]
    lines = [f"{sign} {path}" for sign, path in changes if isinstance(sign, str)]
    if moves:
        (d, _), path = max(moves)
        r, r_path = max((r, p) for (_, r), p in moves)
        head = f"max numeric difference {d:.3g} at {path} (relative {r:.3g}"
        head += ")" if r_path == path else f" at {r_path})"
    else:
        head = "keys or values differ" if lines else "text differs"
    return "\n    ".join([head, *lines])


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_changes(a, b, path: str = ""):
    """Walk two parsed JSON documents together.  Yield ("+", path) for each
    subtree only in b, ("-", path) for each one only in a, (difference, path)
    for each shared number that differs and ("~", path) for each other shared
    leaf that differs.  A difference is the pair of ``_move``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(key for key in b if key not in a)]:
            sub = f"{path}.{key}" if path else key
            if key not in b:
                yield "-", sub
            elif key not in a:
                yield "+", sub
            else:
                yield from _json_changes(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            sub = f"{path}[{i}]"
            if i >= len(b):
                yield "-", sub
            elif i >= len(a):
                yield "+", sub
            else:
                yield from _json_changes(a[i], b[i], sub)
    elif _is_number(a) and _is_number(b):
        if repr(a) != repr(b):
            yield _move(a, b), path
    elif a != b:
        yield "~", path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--work", help="directory for configs and outputs (default: a new temp dir)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)

    jobs = all_jobs()
    for name, _, cfg in jobs:
        with open(os.path.join(work, "configs", f"{name}.json"), "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
    codes = {label: run_tree(tree, jobs, work, label)
             for label, tree in (("old", args.old_tree), ("new", args.new_tree))}

    same = True
    for name, cmd, _ in jobs:
        old_code, new_code = codes["old"][name], codes["new"][name]
        same &= old_code == new_code
        print(f"{name} ({cmd}): exit {old_code} -> {new_code}")
        dirs = [os.path.join(work, label, name) for label in ("old", "new")]
        files = sorted(set().union(*(os.listdir(d) for d in dirs if os.path.isdir(d))))
        for f in files:
            verdict = compare_file(*(os.path.join(d, f) for d in dirs))
            same &= verdict == "identical"
            print(f"  {f}: {verdict}")
    print(f"outputs in {work}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
