"""One fresh benchmark process: set-up, timed passes of one workload, output checks.

``run.py`` starts this script with the BLAS thread count pinned and the
library's ``src`` directory on ``PYTHONPATH``; it prints one JSON object.

Set-up is the imports plus one warm-up job; it ends at the monotonic
(system-wide) clock reading ``ready``, which ``run.py`` compares with the
moment it started the process.  With ``--setup-only`` the process stops
there.  Otherwise it runs ``round(seconds / PASS_S)`` whole passes, at
least one, timing each job and checking its output outside the timed
region.  A fixed pass count, rather than a clock, keeps the set of jobs
the same from run to run, so the job percentiles compare like with like.
For workloads marked ``scaled`` it also times, after every job and
outside the timed region, a fixed reference workload that does not use
bergrange, repeated for at least ``REF_SHARE`` of the job's time, so that
``run.py`` can scale out the speed of the host as the jobs saw it.
With ``--trace 1`` every other pass, starting with the first, is traced,
and the untraced passes between them give the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# rough wall time of one pass of any workload, output checks included, on
# a shared 2-core Xeon with one BLAS thread
PASS_S = 12.5
# the host's speed flips between states within a second, so the reference
# is sampled in proportion to job time for its mean to weight those states
# as the jobs saw them
REF_SHARE = 0.05


def _release_memory():
    """Hand freed heap pages back to the OS (glibc only).

    Called between jobs, outside the timed region, so the peak resident
    size reflects the largest job rather than the heap fragmentation left
    by the jobs before it, which varies with the seed.
    """
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        pass


def reference_workload():
    """Fixed work independent of bergrange, timed between jobs to track host speed.

    It mixes what the workloads spend their time on: small dense
    Hermitian eigensolves and float formatting and parsing.  Returns a
    function that runs the work once and returns its wall time.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    h = (a + a.conj().T) / 2.0
    xs = rng.normal(size=20000).tolist()

    def reference() -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            np.linalg.eigvalsh(h)
        [float(f) for f in ",".join(repr(x) for x in xs).split(",")]
        return time.perf_counter() - t0

    return reference


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool, workdir: Path, out: Path) -> dict:
    import tracing
    import workloads
    from bergrange.core import alpha_weight

    tracer = tracing.Tracer() if trace else None
    if trace:
        tracing.install(tracer)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    ready = time.monotonic()
    if setup_only:
        return {"ready": ready}

    reference = reference_workload()
    jobs, passes, job_walls = [], [], {}
    ref_s = [reference()] if wl.scaled else []
    hits = misses = 0
    for pass_index in range(max(2 if trace else 1, round(seconds / PASS_S))):
        traced = trace and pass_index % 2 == 0
        pass_s = 0.0
        for label, job in wl.jobs(pass_index):
            job_id = len(jobs)
            if traced:
                before = alpha_weight.cache_info()
                handle = tracer.begin_job(job_id)
            t0 = time.perf_counter()
            try:
                result = wl.run(job)
                problems = None
            except Exception:
                problems = [f"{label}: raised\n{traceback.format_exc()}"]
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_job(handle)
                after = alpha_weight.cache_info()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
                job_walls[job_id] = dt
            spent = 0.0
            while wl.scaled and (not spent or spent < REF_SHARE * dt):
                ref_s.append(reference())
                spent += ref_s[-1]
            if problems is None:
                try:
                    problems = wl.verify(job, result)
                except Exception:
                    problems = [f"{label}: output check raised\n{traceback.format_exc()}"]
                del result
            _release_memory()
            for p in problems:
                print(f"verify: {label}: {p}", file=sys.stderr)
            jobs.append({"pass": pass_index, "label": label, "traced": traced, "s": dt, "ok": not problems})
            pass_s += dt
        passes.append({"traced": traced, "s": pass_s})

    report = {
        "ready": ready,
        "env": environment(),
        "jobs": jobs,
        "passes": passes,
        "ref_s": ref_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        from bergrange.checks import list_checks

        spans = tracer.spans
        with open(out / f"trace-{workload}-seed{seed}.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s._asdict()) + "\n")
        traced_s = [p["s"] for p in passes if p["traced"]]
        plain_s = [p["s"] for p in passes if not p["traced"]]
        layers = tracing.layer_metrics(
            spans, len(traced_s), [cid for cid, _, _ in list_checks()], hits, misses
        )
        layers["trace_overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        layers["trace.self_sum_err_frac"] = tracing.self_sum_error(spans, job_walls)
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True, help="directory for traces and temporary files")
    args = ap.parse_args(argv)
    workdir = args.out / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only, workdir, args.out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
