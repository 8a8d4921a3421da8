"""cmvlab benchmark: seeded CLI workloads checked against independent oracles.

    python3 perfbench/run.py --workload lyap_qp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/cmvlab``).
Each repetition of the workload runs in a fresh interpreter (worker.py);
there are at least three, and more while another one fits in ``--seconds``.  Every job's
outputs are checked by oracles.py.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Details go to standard error and to
``.perfbench_out/<workload>-<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
import spans
import workloads
from worker import steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # fresh interpreters timed per run for setup_s
MIN_REPS = 3               # repetitions per untraced run, at least
# A run must end within 180 s even when the program got much slower: no
# repetition starts that would end past this point.
HARD_BUDGET_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_norm", "probe"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _launch(spec: dict, work: Path, tag: str) -> dict:
    """Run worker.py on ``spec`` in a fresh interpreter and return its result."""
    spec = dict(spec, root=str(ROOT), result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    env = dict(os.environ)
    env.pop("CMVLAB_THREADS", None)
    # one thread in the worker: BLAS helper threads would make a job's time
    # depend on the load of a second core of a small shared host
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spec["launched"], spec["launched_steal"] = time.monotonic(), steal_s()
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=str(ROOT), env=env, capture_output=True, text=True,
                              timeout=HARD_BUDGET_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} exceeded {HARD_BUDGET_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def _run_rep(jobs: list, cfg_paths: list, work: Path, rep: int, trace: bool,
             probe: bool) -> dict:
    rep_dir = work / f"rep{rep}"
    rep_dir.mkdir()
    spec = {"trace": trace, "probe": probe, "jobs": [
        {"command": j.command, "config": str(p), "out": str(rep_dir / j.name)}
        for j, p in zip(jobs, cfg_paths)]}
    return _launch(spec, work, f"rep{rep}")


def _same_outputs(a: Path, b: Path) -> bool:
    if not (a.is_dir() and b.is_dir()):
        return False
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def _verdict(job, res: dict, out_dir: Path) -> dict:
    """Check one job of one repetition: exit status first, then the oracle."""
    v = {"job": job.name, "rc": res["rc"], "wall_s": res["wall_s"], "checks": [],
         "problem": None}
    if res["error"] or res["rc"] != 0:
        v["problem"] = res["error"] or f"exit code {res['rc']}"
        v["stderr"] = res["stderr"]
        return v
    try:
        checks = oracles.check_job(job.name, job.command, job.config, str(out_dir))
    except Exception:  # malformed or missing outputs fail the job
        v["problem"] = "oracle could not read the outputs:\n" + traceback.format_exc()
        return v
    v["checks"] = [{"name": c.name, "err": float(c.err), "tol": float(c.tol),
                    "ratio": float(c.ratio), "ok": bool(c.ok),
                    "known_defect": bool(c.known_defect)} for c in checks]
    return v


def _judge(jobs: list, reps: list, work: Path) -> list[dict]:
    """Verdicts for every job of every repetition.

    The oracle runs on the first repetition; a later repetition whose output
    files are byte-identical inherits its verdict, any other is checked anew.
    """
    verdicts = []
    for r, rep in enumerate(reps):
        for i, job in enumerate(jobs):
            res = rep["jobs"][i]
            out_dir = work / f"rep{r}" / job.name
            first = verdicts[i] if r else None
            if (first is not None and first["problem"] is None and res["rc"] == 0
                    and not res["error"] and _same_outputs(work / "rep0" / job.name, out_dir)):
                v = dict(first, wall_s=res["wall_s"], rc=res["rc"])
            else:
                v = _verdict(job, res, out_dir)
            v["rep"] = r
            verdicts.append(v)
    return verdicts


def _failed(v: dict) -> bool:
    return v["problem"] is not None or not all(c["ok"] for c in v["checks"])


def _only_known_defect(v: dict) -> bool:
    return v["problem"] is None and all(c["ok"] or c["known_defect"] for c in v["checks"])


def _summarize(verdicts: list[dict]) -> None:
    for v in verdicts:
        if v["rep"]:
            continue
        worst = max(v["checks"], key=lambda c: c["ratio"], default=None)
        status = "ok" if not _failed(v) else (
            "FAIL (known narrow-gap defect)" if _only_known_defect(v) else "FAIL")
        line = f"  {v['job']:<16} {v['wall_s']:8.3f} s  {status}"
        if worst is not None:
            line += f"  worst {worst['name']} err/tol = {worst['ratio']:.3g}"
        print(line, file=sys.stderr)
        if v["problem"]:
            print("    " + v["problem"].strip().replace("\n", "\n    "), file=sys.stderr)
            if v.get("stderr"):
                print("    stderr: " + v["stderr"].strip().replace("\n", "\n    "),
                      file=sys.stderr)


def _norm_wall(res: dict) -> float:
    return (res["wall_s"] - res["steal_s"]) / res["probe_s"]


def _setup_samples(reps: list, work: Path) -> list[float]:
    samples = [r["setup_s"] for r in reps]
    for i in range(max(0, SETUP_SAMPLES - len(samples))):
        samples.append(_launch({"setup_only": True}, work, f"setup{i}")["setup_s"])
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "cmvlab" / "__init__.py").is_file():
        raise BenchError(f"no cmvlab sources under {ROOT / 'src'}")
    jobs = workloads.make_jobs(workload, seed)
    work = ROOT / ".perfbench_out" / f"{workload}-{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    cfg_paths = []
    for j in jobs:
        path = work / "configs" / f"{j.name}.json"
        path.write_bytes(j.config_bytes())
        cfg_paths.append(path)

    # one untimed start-up first, so compiled bytecode exists for every run
    _launch({"setup_only": True}, work, "warmup")
    t_start = time.monotonic()
    if trace:
        reps = [_run_rep(jobs, cfg_paths, work, 0, False, False),
                _run_rep(jobs, cfg_paths, work, 1, True, False)]
    else:
        reps = []
        while True:
            t_rep = time.monotonic()
            reps.append(_run_rep(jobs, cfg_paths, work, len(reps), False, True))
            elapsed = time.monotonic() - t_start
            projected = elapsed + (time.monotonic() - t_rep)
            if projected > HARD_BUDGET_S or (len(reps) >= MIN_REPS and projected > seconds):
                break

    verdicts = _judge(jobs, reps, work)
    attempted = len(verdicts)
    failed = sum(_failed(v) for v in verdicts)
    correct = all(_only_known_defect(v) for v in verdicts)
    ratios = [c["ratio"] for v in verdicts for c in v["checks"]]
    print(f"{workload} seed {seed}: {len(reps)} repetition(s), "
          f"{failed}/{attempted} job runs failed", file=sys.stderr)
    _summarize(verdicts)

    if trace:
        per_layer = dict(reps[1]["per_layer"])
        per_layer["run.wall_s"] = reps[0]["wall_s"]
        per_layer["run.cpu_s"] = reps[0]["cpu_s"]
        per_layer["run.fail_frac"] = failed / attempted
        per_layer["run.max_err_ratio"] = max(ratios, default=0.0)
        per_layer["trace.overhead_frac"] = reps[1]["wall_s"] / reps[0]["wall_s"] - 1.0
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        # A small shared host runs 1.4-1.6x slower than its uncontended speed
        # for seconds to minutes at a time, and at times keeps the machine
        # from running for a fifth of the wall time, so raw wall times of the
        # same code spread by more than any bound.  Each job's wall time less
        # steal time is counted in probe times measured on the same core
        # during that job; per job the median over repetitions, summed.
        values = {
            "wall_norm": sum(statistics.median(_norm_wall(r["jobs"][i]) for r in reps)
                             for i in range(len(jobs))),
            "setup_s": statistics.median(_setup_samples(reps, work)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    with open(work / "report.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "repetitions": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s",
                                                       "peak_rss_mb")} for r in reps],
                   "verdicts": verdicts, "metrics": metrics}, fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
