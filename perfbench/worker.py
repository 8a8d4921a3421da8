"""One workload run in a fresh interpreter: import cmvlab, run the jobs, report.

Started by run.py as ``python worker.py SPEC_JSON``.  The spec names the
source root, the jobs (command, config path, output directory), the result
file and the parent's monotonic clock and steal time readings at launch, so
the interpreter start-up up to the moment cmvlab and cmvlab.cli are imported,
less steal time, counts as set-up time.  Jobs go through the public entry
point ``cmvlab.cli.main`` one after another, with the program's default
threading.

Each job also records the steal time counted while it ran.  With ``probe``
set, a fixed slice of interpreter work (the speed probe) is timed from a
SIGALRM handler every PROBE_EVERY_S while a job runs, and back to back just
before and after it.  The median probe time measures how fast the core ran
while it ran; run.py divides the job's wall time less steal time by it.
"""

import os
import sys
import time


def steal_s() -> float:
    """Steal time of all CPUs so far, from /proc/stat; 0 where there is none.

    Steal time is time the host kept a CPU of this virtual machine from
    running although it had work.  An idle CPU accrues none.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


if __name__ == "__main__":
    import cmvlab  # noqa: F401  (timed: set-up ends once both are imported)
    import cmvlab.cli  # noqa: F401

    _IMPORTED = time.monotonic()
    _IMPORTED_STEAL = steal_s()

import contextlib
import io
import json
import resource
import signal
import statistics
import traceback

PROBE_EVERY_S = 0.02       # a probe costs about 0.3 ms, so about 1.5 % of a job
PROBES_AROUND_JOB = 8      # so that a job of one long C call still gets probes
_probe_s: list[float] = []


def _probe(*_) -> None:
    t = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    _probe_s.append(time.perf_counter() - t)


def _bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _run_job(argv: list[str]) -> dict:
    buf = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stderr(buf):
        try:
            rc = cmvlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line with exit 2
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
    return {"rc": rc, "error": error, "stderr": buf.getvalue()}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    where = os.path.realpath(cmvlab.__file__)
    if not where.startswith(src + os.sep):
        print(f"cmvlab was imported from {where}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": (_IMPORTED - spec["launched"])
                         - (_IMPORTED_STEAL - spec["launched_steal"])}
    if spec.get("setup_only"):
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    probe = spec.get("probe")
    if probe:
        signal.signal(signal.SIGALRM, _probe)
    jobs = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job_id = i
        if probe:
            _probe_s.clear()
            for _ in range(PROBES_AROUND_JOB):
                _probe()
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        steal, t = steal_s(), time.perf_counter()
        out = _run_job([job["command"], "--config", job["config"], "--out", job["out"]])
        out["wall_s"] = time.perf_counter() - t
        out["steal_s"] = steal_s() - steal
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            for _ in range(PROBES_AROUND_JOB):
                _probe()
            out["probe_s"] = statistics.median(_probe_s)
            out["probes"] = len(_probe_s)
        jobs.append(out)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    for job, out in zip(spec["jobs"], jobs):
        out["bytes_written"] = _bytes_under(job["out"]) if os.path.isdir(job["out"]) else 0
    result.update({
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "jobs": jobs,
    })
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["per_layer"]["cli.bytes_written"] = sum(o["bytes_written"] for o in jobs)
        tracer.dump(os.path.join(os.path.dirname(spec["result"]), "spans.json"))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
