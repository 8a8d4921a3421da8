"""The traced worker on tiny jobs, the tracer's robustness, and the bare-directory exit."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import spans
import worker

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = [
    ("lyapunov", {"sequence": {"kind": "quasiperiodic", "amplitude": 0.5,
                               "frequency": 0.3819660112501051, "phase": 0.1},
                  "grid_size": 8, "n_steps": 1000, "epsilon_L": 0.01}),
    ("bands", {"sequence": {"kind": "periodic_table", "values": [[0.3, 0.1], [-0.2, 0.4]]},
               "q": 2, "k_points": 4, "resolution": 64}),
    ("walk", {"coins": {"kind": "cgmv_table", "gammas": [[0.5, 0.2], [0.1, -0.3]]},
              "initial": {"site": 0, "spin": "+"}, "steps": 16, "survival_J": 2,
              "record_times": [4, 8]}),
    ("bands", {"sequence": {"kind": "periodic_table", "values": [[0.3, 0.1]]}, "q": 3}),
]


def _worker(tmp_path, trace=True, probe=False):
    jobs = []
    for i, (cmd, cfg) in enumerate(TINY):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        jobs.append({"command": cmd, "config": str(path), "out": str(tmp_path / f"out{i}")})
    spec = {"root": str(ROOT), "result": str(tmp_path / "result.json"), "trace": trace,
            "probe": probe, "jobs": jobs, "launched": time.monotonic(),
            "launched_steal": worker.steal_s()}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(tmp_path / "spec.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "result.json").read_text())


def test_traced_worker_counts_work_where_callers_look_it_up(tmp_path):
    res = _worker(tmp_path)
    m = res["per_layer"]
    assert [j["rc"] for j in res["jobs"]] == [0, 0, 0, 2]
    assert "q" in res["jobs"][3]["stderr"]  # a rejected job keeps its stderr
    assert m["cli.jobs"] == 4
    assert m["transfer.birkhoff_steps"] == 8 * 1000
    assert m["transfer.lyapunov_calls"] == 8
    assert m["coefficients.evals"] >= 8 * 1000
    # floquet looks monodromy up in its own namespace: it must be wrapped there
    assert m["floquet.discriminant_evals"] > 64
    assert m["transfer.monodromy_calls"] >= m["floquet.discriminant_evals"]
    assert m["transfer.gz_steps"] == 2 * m["transfer.monodromy_calls"]
    assert m["floquet.band_eigens_calls"] == 4
    assert m["qwalk.steps"] == 2 * (4 + 8 + 16)
    assert m["qwalk.useful_step_ratio"] == 16 / 56
    assert m["weyl.halfline_solves"] == 0
    for name, _ in spans.PER_LAYER:
        if not name.startswith(("run.", "trace.")):
            assert name in m
    names = json.loads((tmp_path / "spans.json").read_text())["names"]
    assert "cli.main" in names and "floquet.periodic_spectrum" in names


def test_untraced_worker_times_the_speed_probe(tmp_path):
    res = _worker(tmp_path, trace=False, probe=True)
    assert "per_layer" not in res
    for job in res["jobs"]:
        assert job["probes"] >= 2 * worker.PROBES_AROUND_JOB
        assert job["probe_s"] > 0 and job["steal_s"] >= 0
        assert run._norm_wall(job) > 0


def test_tracer_without_spans_reads_zero():
    m = spans.Tracer().metrics()
    assert all(v == 0 for v in m.values())


def test_hook_on_a_changed_signature_is_counted_not_raised():
    tr = spans.Tracer()

    def lyapunov(seq, z):  # no n_steps: the hook cannot read the work
        return 0.0

    wrapped = tr._spanned("transfer.lyapunov", lyapunov)
    assert wrapped(object(), 1.0) == 0.0
    assert tr.counts["trace.hook_errors"] == 1
    assert tr.metrics()["transfer.lyapunov_calls"] == 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "windows",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
