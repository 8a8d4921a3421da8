"""Span tracer for cmvlab, installed from outside the package.

``Tracer.install()`` wraps the public functions of each cmvlab module (the
names in its ``__all__``, and the public methods of the classes listed
there) and rebinds every module-level reference to them inside the
package, so callers that imported a function by name (``floquet`` imports
``monodromy`` from ``transfer``) see the wrapper too.  Each call of a
wrapped function records a span: name, start, end, parent span and job id,
kept in memory and written once at the end.  The hot scalar entry points in
``COUNT_ONLY`` are counted without a span.

A public function that a later version deletes or renames is simply not
wrapped: its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

MODULES = ("coefficients", "operator", "transfer", "floquet", "spectral_sets",
           "weyl", "qwalk", "cli")

COUNT_ONLY = {
    "coefficients.CoefficientSequence.__call__": "coefficients.evals",
    "transfer.gz_step": "transfer.gz_steps",
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("transfer.birkhoff_steps", "count"),
    ("transfer.birkhoff_steps_per_s", "1/s"),
    ("transfer.lyapunov_calls", "count"),
    ("coefficients.evals", "count"),
    ("transfer.monodromy_calls", "count"),
    ("transfer.gz_steps", "count"),
    ("transfer.gz_steps_per_s", "1/s"),
    ("transfer.self_s", "s"),
    ("floquet.periodic_spectrum_calls", "count"),
    ("floquet.periodic_spectrum_s", "s"),
    ("floquet.discriminant_evals", "count"),
    ("floquet.discriminant_evals_per_s", "1/s"),
    ("floquet.band_eigens_calls", "count"),
    ("floquet.kgrid_s", "s"),
    ("floquet.self_s", "s"),
    ("floquet.edges_per_discriminant_eval", "ratio"),
    ("coefficients.lp_sum_criterion_s", "s"),
    ("coefficients.self_s", "s"),
    ("operator.norm_diff_s", "s"),
    ("operator.cmv_banded_calls", "count"),
    ("operator.cmv_banded_s", "s"),
    ("operator.dense_windows", "count"),
    ("operator.dense_bytes", "B"),
    ("operator.verify_sieve_square_s", "s"),
    ("operator.self_s", "s"),
    ("weyl.M_calls", "count"),
    ("weyl.halfline_solves", "count"),
    ("weyl.solves_per_s", "1/s"),
    ("weyl.self_s", "s"),
    ("qwalk.evolve_calls", "count"),
    ("qwalk.steps", "count"),
    ("qwalk.site_steps", "count"),
    ("qwalk.site_steps_per_s", "1/s"),
    ("qwalk.self_s", "s"),
    ("qwalk.useful_step_ratio", "ratio"),
    ("spectral_sets.calls", "count"),
    ("spectral_sets.self_s", "s"),
    ("cli.jobs", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("run.wall_s", "s"),
    ("run.cpu_s", "s"),
    ("run.fail_frac", "ratio"),
    ("run.max_err_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


# -- argument hooks: work counts read from a call's arguments and result ----

def _lyapunov_hook(tr: "Tracer", args: dict, result) -> None:
    if getattr(args["seq"], "period", None) is None:
        tr.count("transfer.birkhoff_steps", int(args["n_steps"]) * int(np.size(args["z"])))


def _evolve_hook(tr: "Tracer", args: dict, result) -> None:
    t = int(args["t"])
    tr.count("qwalk.steps", t)
    tr.count("qwalk.site_steps", t * int(np.shape(result.amplitudes)[0]))
    tr.useful[tr.job_id] = max(tr.useful.get(tr.job_id, 0), t)


def _assemble_cmv_hook(tr: "Tracer", args: dict, result) -> None:
    dim = int(args["dim"])
    tr.count("operator.dense_windows", 1)
    tr.count("operator.dense_bytes", 16 * dim * dim)


def _periodic_spectrum_hook(tr: "Tracer", args: dict, result) -> None:
    tr.count("floquet.band_edges", 0 if result.is_full() else 2 * len(result.arcs))


HOOKS = {
    "transfer.lyapunov": _lyapunov_hook,
    "qwalk.evolve": _evolve_hook,
    "operator.assemble_cmv": _assemble_cmv_hook,
    "floquet.periodic_spectrum": _periodic_spectrum_hook,
}


class Tracer:
    """In-memory spans and counters for one traced workload run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = {}
        self.useful: dict[int, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -------------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        names, start, end = self.names, self.start, self.end
        parent, job, stack = self.parent, self.job, self.stack
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                self._run_hook(hook, sig, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook, sig, args, kwargs, result) -> None:
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result)
        except Exception:  # a changed signature must not break the run
            self.count("trace.hook_errors")

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counted(COUNT_ONLY[name], fn)
        return self._spanned(name, fn)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") and name not in COUNT_ONLY:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def install(self) -> None:
        """Wrap every public cmvlab function and rebind its references."""
        replace: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"cmvlab.{short}")
            except ImportError:
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cmvlab" or mod_name.startswith("cmvlab.")):
                continue
            for key, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])

    # -- results --------------------------------------------------------------

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table,
                       "name": [index[n] for n in self.names],
                       "start": self.start, "end": self.end,
                       "parent": self.parent, "job": self.job,
                       "counts": self.counts}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derivable from the spans and counters alone."""
        names = self.names
        n = len(names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        module = np.array([s.split(".", 1)[0] for s in names]) if n else np.array([], str)
        name_arr = np.array(names) if n else np.array([], str)

        def covered(mask: np.ndarray) -> np.ndarray:
            # spans are appended before their children, so one forward pass
            # propagates "has an ancestor in mask"
            out = np.zeros(n, dtype=bool)
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    out[i] = out[p] or mask[p]
            return out

        def incl(mask: np.ndarray) -> float:
            return float(dur[mask & ~covered(mask)].sum()) if mask.any() else 0.0

        def calls(name: str) -> int:
            return int(np.count_nonzero(name_arr == name))

        def self_s(mod: str) -> float:
            return float(self_t[module == mod].sum())

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        c = self.counts.get
        lyap_s = incl(name_arr == "transfer.lyapunov")
        mono_s = incl(name_arr == "transfer.monodromy")
        disc_n = calls("floquet.discriminant")
        disc_s = incl(name_arr == "floquet.discriminant")
        weyl_mask = module == "weyl"
        solves = int(np.count_nonzero((name_arr == "operator.cmv_banded") & covered(weyl_mask)))
        site_steps = c("qwalk.site_steps", 0)
        steps = c("qwalk.steps", 0)
        return {
            "transfer.birkhoff_steps": c("transfer.birkhoff_steps", 0),
            "transfer.birkhoff_steps_per_s": rate(c("transfer.birkhoff_steps", 0), lyap_s),
            "transfer.lyapunov_calls": calls("transfer.lyapunov"),
            "coefficients.evals": c("coefficients.evals", 0),
            "transfer.monodromy_calls": calls("transfer.monodromy"),
            "transfer.gz_steps": c("transfer.gz_steps", 0),
            "transfer.gz_steps_per_s": rate(c("transfer.gz_steps", 0), mono_s),
            "transfer.self_s": self_s("transfer"),
            "floquet.periodic_spectrum_calls": calls("floquet.periodic_spectrum"),
            "floquet.periodic_spectrum_s": incl(name_arr == "floquet.periodic_spectrum"),
            "floquet.discriminant_evals": disc_n,
            "floquet.discriminant_evals_per_s": rate(disc_n, disc_s),
            "floquet.band_eigens_calls": calls("floquet.band_eigens"),
            "floquet.kgrid_s": incl(name_arr == "floquet.band_arcs_from_kgrid"),
            "floquet.self_s": self_s("floquet"),
            "floquet.edges_per_discriminant_eval": rate(c("floquet.band_edges", 0), disc_n),
            "coefficients.lp_sum_criterion_s": incl(name_arr == "coefficients.lp_sum_criterion"),
            "coefficients.self_s": self_s("coefficients"),
            "operator.norm_diff_s": incl(name_arr == "operator.norm_diff"),
            "operator.cmv_banded_calls": calls("operator.cmv_banded"),
            "operator.cmv_banded_s": incl(name_arr == "operator.cmv_banded"),
            "operator.dense_windows": c("operator.dense_windows", 0),
            "operator.dense_bytes": c("operator.dense_bytes", 0),
            "operator.verify_sieve_square_s": incl(name_arr == "operator.verify_sieve_square"),
            "operator.self_s": self_s("operator"),
            "weyl.M_calls": calls("weyl.M_coefficients"),
            "weyl.halfline_solves": solves,
            "weyl.solves_per_s": rate(solves, incl(weyl_mask)),
            "weyl.self_s": self_s("weyl"),
            "qwalk.evolve_calls": calls("qwalk.evolve"),
            "qwalk.steps": steps,
            "qwalk.site_steps": site_steps,
            "qwalk.site_steps_per_s": rate(site_steps, incl(name_arr == "qwalk.evolve")),
            "qwalk.self_s": self_s("qwalk"),
            "qwalk.useful_step_ratio": rate(sum(self.useful.values()), steps),
            "spectral_sets.calls": int(np.count_nonzero(module == "spectral_sets")),
            "spectral_sets.self_s": self_s("spectral_sets"),
            "cli.jobs": calls("cli.main"),
            "cli.self_s": self_s("cli"),
        }
