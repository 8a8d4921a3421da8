import json
from pathlib import Path

import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _bytes(workload, seed):
    return [(j.name, j.command, j.config_bytes()) for j in workloads.make_jobs(workload, seed)]


def test_same_seed_gives_byte_identical_configs():
    for w in workloads.WORKLOADS:
        assert _bytes(w, 7) == _bytes(w, 7)
        assert _bytes(w, -3) == _bytes(w, -3)


def test_seed_changes_the_generated_inputs():
    for w in workloads.WORKLOADS:
        assert _bytes(w, 7) != _bytes(w, 8)


def test_inputs_are_explicit_specs():
    for w in workloads.WORKLOADS:
        for job in workloads.make_jobs(w, 3):
            text = job.config_bytes().decode()
            assert "random_periodic" not in text
            assert "seed" not in text


def test_readme_approx_config_is_kept_verbatim():
    approx = [j for j in workloads.make_jobs("bands_lp", 5) if j.command == "approx"]
    assert len(approx) == 1
    assert approx[0].config == workloads.README_APPROX


def test_lyap_qp_size():
    jobs = workloads.make_jobs("lyap_qp", 1)
    steps = sum(j.config["grid_size"] * j.config["n_steps"] for j in jobs)
    assert steps == 4 * 64 * 20_000
    for j in jobs:
        seq = j.config["sequence"]
        assert seq["kind"] == "quasiperiodic"
        assert 0.3 <= seq["amplitude"] <= 0.8


def test_benchmark_json_matches_the_code():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
