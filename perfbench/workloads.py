"""Seeded job lists for the three benchmark workloads.

Every input is drawn here from the benchmark's ``--seed`` and handed to the
program as an explicit spec (``quasiperiodic``, ``periodic_table``,
``cgmv_table``); cmvlab's own ``random_periodic`` kind and ``--seed`` flag are
never used.  The same seed gives byte-identical config files.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("lyap_qp", "bands_lp", "windows")

# The limit-periodic example config of the README, verbatim.  Its stages
# q = 4, 8, 16 open gaps narrower than the 4096-point scan grid, which the
# program misses at commit de1ca58 (the known narrow-gap defect).
README_APPROX = {
    "family": {"kind": "pt_family", "base_amp": 0.1, "q0": 2, "levels": 3,
               "decay": {"form": "geometric", "base": 4.0}},
    "grid_size": 8192, "n_steps": 100000, "epsilon_L": 0.01, "k": 0,
}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: dict

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, indent=1, sort_keys=True) + "\n").encode()


def _rng(workload: str, seed: int) -> np.random.Generator:
    # the mask keeps any 64-bit seed, negative ones too, a valid entropy word
    return np.random.default_rng([int(seed) & 0xFFFF_FFFF_FFFF_FFFF,
                                  zlib.crc32(workload.encode())])


def _pairs(vals) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in vals]


def _disk_table(rng: np.random.Generator, q: int, radius: float) -> list[list[float]]:
    return _pairs(radius * rng.random(q) * np.exp(2j * math.pi * rng.random(q)))


def _table_spec(rng: np.random.Generator, q: int, radius: float) -> dict:
    return {"kind": "periodic_table", "values": _disk_table(rng, q, radius)}


def lyap_qp(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for i in range(4):
        seq = {"kind": "quasiperiodic", "amplitude": float(rng.uniform(0.3, 0.8)),
               "frequency": float(rng.random()), "phase": float(rng.random())}
        jobs.append(Job(f"lyapunov-{i}", "lyapunov",
                        {"sequence": seq, "grid_size": 64, "n_steps": 20000,
                         "epsilon_L": 0.01}))
    return jobs


def bands_lp(rng: np.random.Generator) -> list[Job]:
    jobs = [Job("approx-readme", "approx", json.loads(json.dumps(README_APPROX)))]
    for q in (8, 32):
        jobs.append(Job(f"bands-q{q}", "bands",
                        {"sequence": _table_spec(rng, q, 0.5), "q": q, "k_points": 64}))
    return jobs


def windows(rng: np.random.Generator) -> list[Job]:
    walk = {"coins": {"kind": "cgmv_table", "gammas": _disk_table(rng, 4, 0.8)},
            "initial": {"site": 0, "spin": "+"}, "steps": 2048, "survival_J": 5,
            "record_times": [256, 512, 1024, 2048]}
    weyl = {"sequence": _table_spec(rng, 4, 0.5), "dim": 512, "samples": 64,
            "r_values": [0.9, 0.95]}
    sieve = {"sequence": _table_spec(rng, 4, 0.5), "dim": 2048}
    return [Job("walk", "walk", walk), Job("weyl-defect", "weyl-defect", weyl),
            Job("sieve-check", "sieve-check", sieve)]


_BUILDERS = {"lyap_qp": lyap_qp, "bands_lp": bands_lp, "windows": windows}


def make_jobs(workload: str, seed: int) -> list[Job]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](_rng(workload, seed))
