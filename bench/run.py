"""braidgate benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the library is imported from
``src/``.  Each workload runs in fresh interpreters started from here:
``SETUP_PROBES`` that only import braidgate and warm up (for ``setup_s``),
half of them before and half after one that also measures.  Load is a
closed loop with one client, and BLAS runs one thread.

``--workload all`` runs the workloads BENCHMARK.json lists.  Every run
lasts BENCHMARK.json's ``run_seconds``; ``--seconds`` is accepted because
the harness passes that value, and any other value is refused.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics of a traced run of a fixed op count.  End-to-end times
are given at a reference speed: a shared VM can change speed by up to 2x
within seconds, so each time is scaled by how long a fixed calibration
kernel took around it (see ``CAL_REF_MS`` in worker.py).  The wall-clock
figures are printed too, but are not in the result line.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the source tree is
missing or an argument is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("catalog_report", "enhance_solve", "link_eval", "epower_scan")
# The VM's speed drifts over seconds, so probes are split around the
# measuring worker, and setup_s is the median of their and its own set-up
# times, each scaled to the reference speed measured right after it.
SETUP_PROBES = 12
TIME_LIMIT_S = 170  # the whole command ends within this, or fails
# One BLAS thread: on a 2-vCPU VM a two-thread complex 256x256 product took
# 25 ms instead of 3 ms whenever the other vCPU was busy, and OpenBLAS's
# idle threads spin on it, so two threads measure the neighbours' load.
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for the workers: BLAS_THREADS threads for BLAS."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit(),
    }


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True, timeout=30)
    return done.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")


def start_worker(args, workload: str, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line; returns it with the
    set-up time and the speed factor the worker measured right after."""
    if time.perf_counter() > args.deadline:
        raise BenchError("out of time")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, args.deadline - t0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() == "ready":
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, args.deadline - t0))
        line = proc.stdout.readline() if ready else ""
        if line.startswith("speed "):
            return proc, setup, float(line.split()[1])
    finish(proc, args.deadline)
    raise BenchError(f"{workload}: worker did not get ready (exit {proc.returncode})")


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Read the rest of a worker's output and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    return out


def probe_setup(args, workload: str, count: int) -> list[tuple[float, float]]:
    """Set-up times and speed factors of ``count`` workers that only import
    and warm up."""
    setups = []
    for _ in range(count):
        proc, setup, speed = start_worker(args, workload, setup_only=True)
        finish(proc, args.deadline)
        setups.append((setup, speed))
    return setups


def run_workload(args, workload: str) -> dict:
    probes = 0 if args.trace else SETUP_PROBES
    setups = probe_setup(args, workload, probes // 2)
    proc, setup, speed = start_worker(args, workload, setup_only=False)
    out = finish(proc, args.deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups += [(setup, speed)] + probe_setup(args, workload, probes - probes // 2)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(t * f for t, f in setups)
        result["extra"]["wall_setup_s"] = statistics.median(t for t, _ in setups)
        result["extra"]["setup_samples_s"] = [t for t, _ in setups]
        result["extra"]["setup_speed_factors"] = [f for _, f in setups]
    return result


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(result: dict, env: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    print("   env: " + json.dumps(env, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    for name, value in result["metrics"].items():
        print(f"   {name:<58} {value:>14.6g} {units[name]}")
    print(f"   {'failed_frac':<58} {failed / attempted:>14.6g} frac  ({failed} of {attempted} ops)")
    for key, value in result["extra"].items():
        print(f"   [{key}] {value}")
    for msg in result["failures"]:
        print(f"   FAILED {msg}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "braidgate", "__init__.py")):
        print(f"error: no braidgate source tree under {ROOT}/src", file=sys.stderr)
        return 2

    spec = load_spec()
    if args.workload != "all":
        names = (args.workload,)
    else:
        names = tuple(w["name"] for w in spec["workloads"])
    args.deadline = time.perf_counter() + TIME_LIMIT_S * len(names)
    if args.seconds not in (None, spec["run_seconds"]):
        print(f"error: --seconds must be run_seconds ({spec['run_seconds']})", file=sys.stderr)
        return 2
    args.seconds = spec["run_seconds"]
    # the metrics BENCHMARK.json declares for this kind of run, with their units
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args.seed)
    results = []
    try:
        for name in names:
            result = run_workload(args, name)
            if set(result["metrics"]) != set(units):
                raise BenchError(f"{name}: metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(result['metrics']) ^ set(units))}")
            report(result, env, units)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "results": results}, fh, indent=1)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for r in results for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
