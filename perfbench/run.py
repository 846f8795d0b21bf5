"""Layered public-path benchmark for the ``repro`` package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kpp-complete --seed 1 --seconds 20 --trace 0

Workloads: ``kpp-complete``, ``ring-rounds``, ``claims-mix``, ``serve-mixed``
(see README.md for what each isolates).  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` alternates
untraced and traced work and reports the per-layer metrics.  ``--smoke``
shrinks every workload to a few seconds.

Before the result, one ``record`` line carries the host, the load, every
raw sample and the correctness detail.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kpp-complete", "ring-rounds", "claims-mix", "serve-mixed")
SETUP_LAUNCHES = 5


def _units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    return parser.parse_args(argv)


def child_env(work: pathlib.Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RESULT_CACHE"] = str(work / "default-store")
    env["REPRO_RESULT_CACHE_MAX"] = "100000"
    return env


def time_setup(env: dict) -> list[float]:
    """Launch the set-up probe a few times: process start until ``ready``."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        started = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = probe.stdout.readline()
        samples.append(perf_counter() - started)
        probe.stdout.close()
        if probe.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


def host_speed() -> float:
    """Median of a few ``clock.probe`` timings: the host's speed right now."""
    from clock import probe

    return statistics.median(probe() for _ in range(9))


def host_record() -> dict:
    import numpy
    import scipy

    from repro.network.kernels import numba_available, resolve_kernel

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_available": numba_available(),
        "kernel_tier": resolve_kernel(),
    }


def sweep_metrics(raw: dict, setup: list[float]) -> dict:
    from sweeps import windowed_percentile

    hot = raw["hot_s"]
    return {
        "setup_s": statistics.median(setup),
        # A typical pass: each call at its median over the run's passes.
        "sweep_s": sum(statistics.median(times) for times in raw["call_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - raw["failed"] / raw["attempted"],
        "req_s.p50": windowed_percentile(hot, 0.5),
        "req_s.p99": windowed_percentile(hot, 0.99),
        "req_per_s": len(hot) / sum(hot),
        "cold_s.p50": statistics.median(raw["cold_s"]),
    }


def run_sweep_workload(args, env, work) -> tuple[dict, dict, list]:
    from layers import SpanSet, Tracer, layer_metrics
    from sweeps import run_sweeps

    setup = time_setup(env)
    tracer = Tracer() if args.trace else None
    raw = run_sweeps(
        args.workload,
        args.seed,
        args.seconds,
        str(work / "store"),
        smoke=args.smoke,
        tracer=tracer,
        hot_calls=200 if args.smoke else 1000,
    )
    metrics = sweep_metrics(raw, setup)
    problems = list(raw["problems"])
    if tracer is not None:
        spans = SpanSet(
            [{"pid": os.getpid(), "spans": tracer.spans, "counters": tracer.counters()}]
        )
        problems += spans.bound_violations()
        metrics = layer_metrics(spans, raw["traced_passes"])
        metrics["trace.overhead_ratio"] = statistics.median(
            raw["traced_pass_raw_s"]
        ) / statistics.median(raw["pass_raw_s"])
    raw["setup_s"] = setup
    return metrics, raw, problems


def run_serve_workload(args, env, work) -> tuple[dict, dict, list]:
    from layers import SpanSet, hot_engine_seconds, layer_metrics, load_dumps
    from serve_load import loop_summary, run_serve
    from sweeps import windowed_percentile

    raw = run_serve(
        str(HERE), env, str(work), args.seed, args.seconds,
        smoke=args.smoke, trace=bool(args.trace),
    )
    loop = raw["untraced"]
    outs = (raw["untraced"], raw["traced"])
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    problems = [p for o in outs for p in o.problems]
    if not loop.cold_s:
        problems.append("no cold request completed: cold_s.p50 has no sample")
    scale = loop.scales[0] if loop.scales else 1.0  # reference s per wall s
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "sweep_s": statistics.median(raw["prewarm_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / attempted,
        "req_s.p50": windowed_percentile(loop.hot_s, 0.5) * scale,
        "req_s.p99": windowed_percentile(loop.hot_s, 0.99) * scale,
        "req_per_s": len(loop.hot_s) / (sum(loop.hot_s) * scale),
        "cold_s.p50": statistics.median(loop.cold_s) * scale if loop.cold_s else 0.0,
    }
    if args.trace:
        spans = SpanSet(load_dumps(raw["spans_dir"]))
        problems += spans.bound_violations()
        if hot_engine_seconds(spans) > 0:
            problems.append("engine time recorded under hot served requests")
        metrics = layer_metrics(spans, len(spans.named("ServeApp.submit_run")))
        metrics["trace.overhead_ratio"] = statistics.median(
            raw["traced"].hot_s
        ) / statistics.median(loop.hot_s)
    record = {
        "setup_s": raw["setup_s"],
        "prewarm_s": raw["prewarm_s"],
        "hot_s": loop.hot_s + raw["traced"].hot_s,
        "cold_s": loop.cold_s + raw["traced"].cold_s,
        "untraced_loop": loop_summary(loop),
        "traced_loop": loop_summary(raw["traced"]),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, record, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = _units()
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env(work)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({k: v for k, v in env.items() if k.startswith("REPRO_")})
    # One core for the whole run, inherited by every process it starts: the
    # probes then time the core the work runs on (the cores of a shared host
    # drift independently), and the serve client, server and fabric workers
    # hand off on one core instead of waking each other across cores.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        load_before = os.getloadavg()
        probe_before = host_speed()
        host = host_record()
        if args.workload == "serve-mixed":
            metrics, raw, problems = run_serve_workload(args, env, work)
        else:
            metrics, raw, problems = run_sweep_workload(args, env, work)
        load_after = os.getloadavg()
        probe_after = host_speed()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "probe_s_before": probe_before,
        "probe_s_after": probe_after,
        "samples": raw,
        "problems": problems,
        "metrics": metrics,
    }
    print("record " + json.dumps(record, default=str))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": {
                    name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
