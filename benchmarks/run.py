"""Benchmark of bergrange: seeded workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload checks_suite --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

The workloads, metric names and units are read from ``BENCHMARK.json``.
Each run starts fresh processes of ``worker.py`` with the library's ``src``
on ``PYTHONPATH`` and one BLAS thread: ``SETUP_RUNS - 1`` processes that
only set up, then one that sets up and runs the workload.  With
``--trace 0`` it prints the end-to-end metrics.  For workloads marked
``scaled`` in ``workloads.py`` the times among them are scaled to a
nominal host speed: the speed of a shared host drifts by a quarter and
more over minutes, and that drift would swamp changes to the program.
The scale is ``REF_S`` over the mean wall time of a fixed reference
workload (``worker.reference_workload``, no bergrange code) that the
worker times after every job.  The unscaled values are printed too.

* ``setup_s``: process start to the first timed job (imports and one
  warm-up job), median over the ``SETUP_RUNS`` processes;
* ``run_s``: median over passes of the timed wall time of one pass;
* ``job_p50_s``: median job time;
* ``job_tail_s``: the highest percentile in ``TAIL_GRID`` with at least
  ten jobs beyond it, or the slowest job when fewer than twenty ran;
* ``peak_rss_mib``: peak resident memory of the process that ran the
  workload, output checks included.

With ``--trace 1`` it prints the per-layer metrics of ``tracing.py``
instead.  Jobs that raise, exit non-zero or fail their output check are
counted in ``failed``; ``failed_frac`` is printed with the other lines.
The last line of standard output is one JSON object; the full result,
with the environment, is also written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
BLAS_THREADS = 1
# a run must end within this many seconds of its start
DEADLINE_S = 170.0
TAIL_GRID = (99, 95, 90, 75, 50)
# wall time of the reference workload on an idle 2-core Xeon, one BLAS thread
REF_S = 0.05
SELF_SUM_LIMIT = 0.03
# single-run timings of the largest checks, recorded in ROADMAP.md
ROADMAP_CHECK_S = {
    "th2_symmetric": 4.9,
    "t3_harmonic_range": 2.3,
    "th1_rotation_hull": 2.3,
    "c1_multiplication": 2.3,
    "pro1_rank_one": 2.3,
}


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple:
    """(label, value, samples beyond) of the highest grid percentile with ten samples beyond it."""
    n = len(values)
    for q in TAIL_GRID:
        beyond = n * (100 - q) / 100.0
        if beyond >= 10:
            return f"p{q}", percentile(values, q), beyond
    return "max", max(values), 0


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - start)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> tuple:
    """Returns (printed lines, attempted, failed, metrics)."""
    setup_runs = 1 if trace else SETUP_RUNS
    setups = [_spawn(workload, seed, seconds, trace, True, deadline)["setup_s"] for _ in range(setup_runs - 1)]
    report = _spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(report["setup_s"])
    jobs = report["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    plain = [j["s"] for j in jobs if not j["traced"]]
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}  passes {len(report['passes'])}  jobs {len(jobs)}",
        "env " + json.dumps(report["env"], sort_keys=True),
        f"failed_frac {failed}/{len(jobs)} = {failed / len(jobs):.4f}",
    ]
    if trace:
        metrics = report["layers"]
        err = metrics["trace.self_sum_err_frac"]
        verdict = "within" if err <= SELF_SUM_LIMIT else "OUTSIDE"
        lines.append(f"span self times add up to job wall time to {err:.2%}, {verdict} the {SELF_SUM_LIMIT:.0%} limit")
        ranked = sorted(ROADMAP_CHECK_S, key=lambda c: -metrics[f"checks.{c}.s"])
        if metrics[f"checks.{ranked[0]}.s"] > 0:
            lines.append(
                "largest checks (traced s vs ROADMAP s): "
                + ", ".join(f"{c} {metrics[f'checks.{c}.s']:.2f} vs {ROADMAP_CHECK_S[c]}" for c in ranked)
            )
    else:
        label, tail_s, beyond = tail(plain)
        raw = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p["s"] for p in report["passes"]),
            "job_p50_s": statistics.median(plain),
            "job_tail_s": tail_s,
        }
        speed = REF_S / statistics.fmean(report["ref_s"]) if report["ref_s"] else 1.0
        metrics = {k: v * speed for k, v in raw.items()}
        metrics["peak_rss_mib"] = report["peak_rss_mib"]
        lines.append(f"job_tail_s is {label} of {len(plain)} jobs, {beyond:g} beyond it")
        lines.append(
            f"times scaled by host speed {speed:.4f}; unscaled: "
            + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
        )
    result = {"workload": workload, "seed": seed, "trace": trace, "setups_s": setups, **report, "metrics": metrics}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return lines, len(jobs), failed, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Benchmark of bergrange.")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bergrange" / "__init__.py").is_file():
        print(f"error: no bergrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    out_metrics = {}
    try:
        for workload in chosen:
            deadline = time.monotonic() + DEADLINE_S
            lines, n, bad, metrics = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            attempted += n
            failed += bad
            for line in lines:
                print(line)
            for m in wanted:
                print(f"  {m['name']:<34} {metrics[m['name']]:.6g} {m['unit']}")
                key = m["name"] if len(chosen) == 1 else f"{workload}.{m['name']}"
                out_metrics[key] = {"value": metrics[m["name"]], "unit": m["unit"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
