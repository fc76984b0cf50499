"""Run one workload in a fresh interpreter: import, warm up, then measure.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this script and reads its standard output.  The first line,
``ready``, is printed once ``braidgate`` is imported and the untimed warm-up
is done; ``run.py`` times set-up up to that line.  The second, ``speed F``,
gives the factor that scales a time measured then to the reference speed
(see ``CAL_REF_MS``).  Unless ``--setup-only`` is given, the last line is one
JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracer import OP_SPAN, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Functions traced as layers, by module-qualified name.
TRACED = (
    "matrix_core.invert", "matrix_core.tensor_product", "matrix_core.partial_trace",
    "matrix_core.is_xtype",
    "yang_baxter.assemble", "yang_baxter.check_ybe", "yang_baxter.braid_rep",
    "yang_baxter.rep_of_word", "yang_baxter.CatalogEntry.fill",
    "yang_baxter.CatalogEntry.random_params",
    "invariants.quadratic_invariants", "invariants.check_identities",
    "invariants.class_eigen_report",
    "entangling_power.entangling_power_quadrature", "entangling_power.entangling_power_closed",
    "entangling_power.class_epower",
    "enhancement.instantiate_recipe", "enhancement.verify_enhancement",
    "enhancement.link_polynomial", "enhancement.markov_check",
    "enhancement.solve_enhancement",
    "hietarinta.classify", "hietarinta.verify_recipe",
)
MAX_REPORTED_FAILURES = 5
# A timed run goes on past its seconds until it has this many ops, so that
# at least ten samples lie beyond the 90th percentile it reports.
MIN_OPS = 100

# A shared VM's speed changes by up to 2x within seconds, with the load of
# its host.  A fixed calibration kernel of interpreter work, small numpy
# calls and one BLAS product (the kinds of work the workloads do) runs
# between ops at least every CAL_EVERY_S and slows down with the machine, so
# each op's time is scaled to the reference speed, the one at which the
# kernel takes CAL_REF_MS: op time x CAL_REF_MS / (median of the CAL_WINDOW
# kernel times nearest the op).  CAL_REF_MS defines the unit; on a shared
# 2-vCPU Xeon VM at 2.0 GHz the kernel takes 0.9-1.6 ms, so reference
# times there are a little shorter than wall times.
CAL_REF_MS = 1.0
CAL_EVERY_S = 0.01
CAL_WINDOW = 15
_CAL_RNG = np.random.default_rng(20201001)
_CAL_SMALL = _CAL_RNG.normal(size=(4, 4)) + 1j * _CAL_RNG.normal(size=(4, 4))
_CAL_DENSE = _CAL_RNG.normal(size=(128, 128)) + 1j * _CAL_RNG.normal(size=(128, 128))


def calibration_kernel() -> float:
    """Fixed work that never touches braidgate."""
    s = 0
    for k in range(300):
        s += k * k
    table = {str(k): k for k in range(60)}
    s += sum(table.values())
    for _ in range(10):
        b = np.kron(_CAL_SMALL, _CAL_SMALL)
        s += (b @ b)[0, 0].real + float(np.abs(np.linalg.eigvals(_CAL_SMALL)).sum())
    return s + abs((_CAL_DENSE @ _CAL_DENSE)[0, 0])


def time_calibration() -> float:
    """One timed run of the calibration kernel, in ms."""
    t0 = time.perf_counter_ns()
    calibration_kernel()
    return (time.perf_counter_ns() - t0) / 1e6


def percentile(values, q: float) -> tuple[float, int, int]:
    """The q-th percentile (linear interpolation), the sample count, and how
    many samples lie above the percentile."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("percentile of no samples")
    pos = (n - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return value, n, sum(1 for v in s if v > value)


def one_op(w, seed: int, i: int, tracer=None) -> tuple[int, str | None, dict | None]:
    """Generate op ``i``, time it, then check its output outside the timing.

    Returns the latency, a failure message or None, and the output."""
    inp = w.make_input(seed, i)
    out = failure = None
    t0 = time.perf_counter_ns()
    try:
        out = w.run(inp) if tracer is None else tracer.run_op(i, w.run, inp)
    except Exception:  # a raising op is counted as failed; the run goes on
        failure = f"op {i}: {traceback.format_exc(limit=3)}"
    latency = time.perf_counter_ns() - t0
    if out is not None:
        try:
            w.check(seed, i, inp, out)
        except Exception as exc:  # any check error fails the op
            failure = f"op {i}: check: {type(exc).__name__}: {exc}"
    return latency, failure, out


def run_ops(w, seed: int, seconds: float) -> dict:
    """Closed loop, one client: each op starts when the previous one and its
    check are done.  Stops on the first cycle boundary after ``seconds``
    that is at least MIN_OPS ops in.

    The calibration kernel is timed before the first op, after the last, and
    after any op that ends CAL_EVERY_S or more after the previous timing;
    ``cal_after[k]`` is the number of ops done before timing ``k``."""
    latencies_ns: list[int] = []
    failures: list[str] = []
    cal_ms, cal_after = [time_calibration()], [0]
    start = last_cal = time.perf_counter()
    i = 0
    while i % w.cycle or i < MIN_OPS or time.perf_counter() - start < seconds:
        latency, failure, _ = one_op(w, seed, i)
        latencies_ns.append(latency)
        if failure:
            failures.append(failure)
        i += 1
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal_ms.append(time_calibration())
            cal_after.append(i)
            last_cal = time.perf_counter()
    if cal_after[-1] != i:
        cal_ms.append(time_calibration())
        cal_after.append(i)
    return {"latencies_ns": latencies_ns, "failures": failures,
            "cal_ms": cal_ms, "cal_after": cal_after}


def speed_factors(n_ops: int, cal_ms, cal_after) -> list[float]:
    """CAL_REF_MS over the median of the CAL_WINDOW kernel times nearest
    each op; op ``j`` sits just before the first timing made after it."""
    half = CAL_WINDOW // 2
    lo_max = max(0, len(cal_ms) - CAL_WINDOW)
    local = [CAL_REF_MS / statistics.median(cal_ms[lo:lo + CAL_WINDOW])
             for lo in (min(max(0, p - half), lo_max) for p in range(len(cal_ms)))]
    return [local[bisect.bisect_right(cal_after, j)] for j in range(n_ops)]


def run_paired(w, seed: int, n_ops: int, tracer) -> dict:
    """Run each of ``n_ops`` ops once plain and once traced, alternating which
    goes first, so drift of the machine's speed does not bias the overhead."""
    plain_ns, traced_ns, failures = [], [], []
    families = 0
    for i in range(n_ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    latency, failure, out = one_op(w, seed, i, tracer)
                traced_ns.append(latency)
                families += len(out.get("families", ())) if out else 0
            else:
                latency, failure, _ = one_op(w, seed, i)
                plain_ns.append(latency)
            if failure:
                failures.append(failure)
    return {"plain_ns": plain_ns, "traced_ns": traced_ns, "failures": failures,
            "families": families}


def latency_metrics(run: dict) -> tuple[dict, dict]:
    """Throughput and latency percentiles at the reference speed; the wall
    clock figures go into the second dict, which is printed but is not part
    of the result line."""
    wall = [v / 1e6 for v in run["latencies_ns"]]
    factors = speed_factors(len(wall), run["cal_ms"], run["cal_after"])
    ref = [v * f for v, f in zip(wall, factors)]
    p50, n, _ = percentile(ref, 50)
    p90, _, beyond90 = percentile(ref, 90)
    metrics = {
        "ops_per_ref_s": len(ref) / (sum(ref) / 1e3),
        "latency_p50_ref_ms": p50,
        "latency_p90_ref_ms": p90,
    }
    extra = {
        "samples": n, "beyond_p90": beyond90,
        "calibrations": len(run["cal_ms"]),
        "calibration_median_ms": statistics.median(run["cal_ms"]),
        "wall_ops_per_s": len(wall) / (sum(wall) / 1e3),
        "wall_latency_p50_ms": percentile(wall, 50)[0],
        "wall_latency_p90_ms": percentile(wall, 90)[0],
    }
    return metrics, extra


def layer_metrics(tracer, n_ops: int, families: int, starts_per_solve: int) -> dict:
    """Per-op calls and self time of each traced function, plus ratios."""
    a = tracer.arrays()
    own = self_times(a["start_ns"], a["end_ns"], a["parent"])
    in_op = a["op"] >= 0  # spans made outside an op are not counted
    name = np.where(in_op, a["name"], -1)
    is_op = name == tracer.names.index(OP_SPAN)
    op_ns = int((a["end_ns"] - a["start_ns"])[is_op].sum())
    metrics = {}
    for k, fn in enumerate(tracer.names):
        if fn != OP_SPAN:
            metrics[f"{fn}.calls"] = int(np.sum(name == k)) / n_ops
            metrics[f"{fn}.self_ms"] = int(own[name == k].sum()) / 1e6 / n_ops
    solve = tracer.names.index("enhancement.solve_enhancement")
    verify_parents = a["parent"][name == tracer.names.index("enhancement.verify_enhancement")]
    verified_in_solve = int(np.sum(name[verify_parents[verify_parents >= 0]] == solve))
    starts = int(np.sum(name == solve)) * starts_per_solve
    metrics["enhancement.solve_enhancement.families_per_start"] = families / starts if starts else 0.0
    metrics["enhancement.solve_enhancement.verified_per_start"] = (
        verified_in_solve / starts if starts else 0.0)
    metrics["trace.accounted_frac"] = 1 - int(own[is_op].sum()) / op_ns
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import braidgate  # noqa: F401  - set-up time includes this import
    import workloads

    w = workloads.WORKLOADS[args.workload]
    for i in w.warmup_ops:
        w.run(w.make_input(workloads.WARMUP_SEED, i))
    for _ in range(3):
        calibration_kernel()
    print("ready", flush=True)
    # the machine's speed just after set-up, by which run.py scales set-up time
    speed = CAL_REF_MS / statistics.median(time_calibration() for _ in range(CAL_WINDOW))
    print(f"speed {speed!r}", flush=True)
    if args.setup_only:
        return 0

    gc.collect()
    result = {"workload": w.name, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        run = run_ops(w, args.seed, args.seconds)
        metrics, extra = latency_metrics(run)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(run["latencies_ns"])
    else:
        tracer = Tracer(list(TRACED))
        run = run_paired(w, args.seed, w.trace_ops, tracer)
        metrics = layer_metrics(tracer, w.trace_ops, run["families"], workloads.SOLVER_STARTS)
        metrics["trace.overhead_frac"] = 1 - sum(run["plain_ns"]) / sum(run["traced_ns"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{w.name}.npz"))
        extra = {"spans": len(tracer.span_name), "traced_ops": w.trace_ops}
        attempted = 2 * w.trace_ops
    result.update(
        attempted=attempted,
        failed=len(run["failures"]),
        failures=run["failures"][:MAX_REPORTED_FAILURES],
        metrics=metrics,
        extra=extra,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
