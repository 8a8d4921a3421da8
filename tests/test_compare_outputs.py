import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def verdict(tmp_path, old, new, name="report.json"):
    paths = []
    for label, content in (("old", old), ("new", new)):
        (tmp_path / label).mkdir(exist_ok=True)
        path = tmp_path / label / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths.append(str(path))
    return compare_outputs.compare_file(*paths)


def test_json_key_changes_are_named_next_to_the_largest_move(tmp_path):
    old = {"levels": [{"q": 2, "sigma_measure": 1.5}, {"q": 4, "sigma_measure": 1.25}],
           "lp_sum_criterion": {"holds": True, "lhs": 0.125}, "gone": [1, 2], "k": 0}
    new = {"levels": [{"q": 2, "sigma_measure": 1.5, "diagnostics": {"value": 1e-16}},
                      {"q": 4, "sigma_measure": 1.25 + 2 ** -50}],
           "lp_sum_criterion": {"holds": False, "lhs": 0.125 + 2 ** -40}, "k": 0}
    lines = verdict(tmp_path, old, new).split("\n")
    assert lines[0] == (f"max numeric difference {2 ** -40:.3g} at lp_sum_criterion.lhs "
                        f"(relative {2 ** -40 / (0.125 + 2 ** -40):.3g})")
    assert [line.strip() for line in lines[1:]] == [
        "+ levels[0].diagnostics", "~ lp_sum_criterion.holds", "- gone"]


@pytest.mark.parametrize("old, new, want", [
    ({"a": [1, 2]}, {"a": [1, 2, 3]}, ["keys or values differ", "+ a[2]"]),
    ({"a": 1, "b": 2}, {"b": 2, "a": 1}, ["text differs"]),
    ({"a": 1.0}, {"a": 1.0}, ["identical"]),
])
def test_json_verdicts_without_a_numeric_move(tmp_path, old, new, want):
    assert [line.strip() for line in verdict(tmp_path, old, new).split("\n")] == want


def test_json_relative_moves_name_their_own_path(tmp_path):
    # a 5e-16 move of a 1e-5 probability outweighs a 1e-15 move of an angle
    old = {"angle": 3.0, "p": 1e-5, "zero": 0.0}
    new = {"angle": 3.0 + 1e-15, "p": 1e-5 + 5e-16, "zero": -0.0}
    d_angle, d_p = new["angle"] - 3.0, new["p"] - 1e-5
    assert verdict(tmp_path, old, new) == (
        f"max numeric difference {d_angle:.3g} at angle "
        f"(relative {d_p / new['p']:.3g} at p)")


def test_other_files_compare_their_numbers(tmp_path):
    assert verdict(tmp_path, "x,y\n1.5,2\n", "x,y\n1.5,2.25\n", "t.csv") == \
        "max numeric difference 0.25 (relative 0.111)"
    # the largest relative move need not be the largest absolute one
    assert verdict(tmp_path, "p,z\n1e-05,3\n0,-0\n", "p,z\n1.00000000005e-05,3.0000001\n0,0\n",
                   "t.csv") == "max numeric difference 1e-07 (relative 3.33e-08)"
    assert verdict(tmp_path, "x,y\n1.5,2\n", "x,z\n1.5,2\n", "t.csv") == "text differs"


def test_jobs_include_a_birkhoff_sweep_of_a_wide_grid():
    wide = [(name, cfg) for name, cmd, cfg in compare_outputs.all_jobs()
            if cmd == "lyapunov" and cfg["sequence"]["kind"] == "quasiperiodic"
            and cfg["grid_size"] >= 2048 and cfg["n_steps"] == 20000]
    assert [name for name, _ in wide] == ["wide-grid-lyapunov"]


def test_jobs_include_a_birkhoff_sweep_of_a_short_orbit_on_a_narrow_grid():
    short = [(name, cfg) for name, cmd, cfg in compare_outputs.all_jobs()
             if cmd == "lyapunov" and cfg["sequence"]["kind"] == "quasiperiodic"
             and cfg["grid_size"] == 64 and cfg["n_steps"] == 1000]
    assert [name for name, _ in short] == ["short-orbit-lyapunov"]


def test_jobs_include_a_weyl_defect_run_on_long_windows():
    long = [(name, cfg) for name, cmd, cfg in compare_outputs.all_jobs()
            if cmd == "weyl-defect" and cfg["dim"] >= 32768 and max(cfg["r_values"]) >= 0.999]
    assert [name for name, _ in long] == ["long-window-weyl-defect"]
    cfg = long[0][1]
    assert cfg["sequence"]["kind"] == "periodic_table" and len(cfg["sequence"]["values"]) == 4
    assert cfg["r_values"] == [0.99, 0.999] and cfg["samples"] == 64


def test_jobs_include_a_bands_run_whose_stacks_end_inside_pole_intervals():
    cut = [(name, cfg) for name, cmd, cfg in compare_outputs.all_jobs()
           if cmd == "bands" and cfg["q"] == 32 and cfg["k_points"] == 100]
    assert [name for name, _ in cut] == ["cut-stacks-bands"]
    # 32 k per stack against 12.5 k per pole interval: the first stack ends
    # inside the third interval
    from cmvlab import floquet

    assert floquet._k_block(32) % (100 / floquet._POLE_INTERVALS) != 0


def test_jobs_include_a_bands_run_on_a_table_with_a_narrow_band(tmp_path):
    narrow = [(name, cfg) for name, cmd, cfg in compare_outputs.all_jobs()
              if cmd == "bands" and cfg["q"] == 64 and cfg["k_points"] == 64]
    assert [name for name, _ in narrow] == ["narrow-bands"]
    cfg = narrow[0][1]
    assert cfg["sequence"]["kind"] == "periodic_table"
    assert max(math.hypot(*v) for v in cfg["sequence"]["values"]) <= 0.9
    # its slowest band moves at |dz/dk| = 5.2e-10
    from cmvlab.cli import main

    path = tmp_path / "bands.json"
    path.write_text(json.dumps(cfg))
    assert main(["bands", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "bands.csv") as fh:
        rows = [line.split(",") for line in fh if line[0].isdigit()]
    assert min(math.hypot(float(r[5]), float(r[6])) for r in rows) < 1e-9
