"""softtopo benchmark: one workload, one run, single process.

Run from the repository root, which must hold src/softtopo and BENCHMARK.json:

    python3 perfbench/run.py --workload suite-t1 --seed 1 --seconds 35 --trace 0

The workload's inputs are built from --seed (set up SETUP_REPEATS times;
setup_s is the import time plus the median set-up), then timed passes run
back to back (a closed loop, one caller, --jobs 1) for about --seconds, and
every pass's outputs are checked outside the timed section. With --trace 0
the end-to-end metrics of BENCHMARK.json are reported; with --trace 1 one
untraced pass is followed by one traced pass and the per-layer metrics are
reported. The last line of stdout is the result as one JSON object; the
exit code is 1 when an output check failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from workloads import WORKLOADS

SETUP_REPEATS = 5
# Numbers are only comparable on one kernel backend; the baselines use this one.
BASELINE_BACKEND = "pure"
perf = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: str) -> float:
    """Import softtopo from <root>/src with default settings; returns the import time."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "softtopo", "__init__.py")):
        fail(f"no softtopo sources under {src}; run from the repository root")
    for knob in ("SOFTTOPO_BITCAP", "SOFTTOPO_PURE"):
        os.environ.pop(knob, None)
    sys.path.insert(0, src)
    t0 = perf()
    import softtopo
    import_s = perf() - t0
    if not os.path.abspath(softtopo.__file__).startswith(src + os.sep):
        fail(f"imported softtopo from {softtopo.__file__}, not from {src}")
    return import_s


def environment() -> dict:
    import softtopo
    from softtopo import core, kernels

    return {
        "backend": getattr(kernels, "BACKEND", "pure"),
        "bit_cap": core.bit_cap(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "softtopo": softtopo.__version__,
    }


def timed_passes(workload, seconds: float) -> tuple[list[float], list]:
    """Run passes until about `seconds` of pass time; at least one.

    Another pass starts only if it is expected to end within half a pass
    of the budget, so a run measures whole passes for about `seconds`.
    A pass's spaces hold their caches in reference cycles, so each pass's
    garbage is collected before the next starts: peak RSS is then the peak
    of one pass, not of however many passes the cyclic collector let pile up.
    """
    walls, results = [], []
    gc.collect()
    while True:
        t0 = perf()
        res = workload.run_pass()
        walls.append(perf() - t0)
        workload.check(res, first=not results)
        res.outputs = None
        results.append(res)
        gc.collect()
        if sum(walls) + statistics.median(walls) / 2 > seconds:
            return walls, results


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between samples (never beyond the max)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, walls: list[float], results: list) -> dict:
    """Pass-level figures are medians over passes, so one slow pass counts once."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "throughput_per_s": sum(r.units for r in results) / sum(walls),
        "op_p50_us": statistics.median(percentile(r.latencies, 50) for r in results) * 1e6,
        "op_p99_us": statistics.median(percentile(r.latencies, 99) for r in results) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(workload, trace_stem: str) -> tuple[dict, list]:
    """One untraced pass, then one traced pass; returns the layer metrics."""
    import layers
    from tracer import Tracer

    t0 = perf()
    plain = workload.run_pass()
    untraced_wall = perf() - t0
    workload.check(plain, first=True)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf()
        with tracer.root("bench.pass"):
            res = workload.run_pass(probe=False)
        traced_wall = perf() - t0
    finally:
        tracer.uninstall()
    workload.check(res, first=False)
    tracer.dump(trace_stem)
    return layers.metrics(tracer, traced_wall, untraced_wall), [plain, res]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json in {root}: {exc}")
    import_s = import_program(root)
    env = environment()
    if env["backend"] != BASELINE_BACKEND:
        fail(f"kernel backend is {env['backend']!r}; runs are only comparable on "
             f"the {BASELINE_BACKEND!r} backend the baselines were measured on")

    out_root = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            workload.setup()
            setups.append(perf() - t0)
        setup_s = import_s + statistics.median(setups)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env: " + json.dumps(env, sort_keys=True))
        if args.trace:
            stem = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}")
            values, results = traced_pass(workload, stem)
            walls = None
            wanted = spec["per_layer"]
            print(f"spans: {stem}.bin ({values['trace.spans']:.0f} spans, layout in {stem}.json)")
        else:
            walls, results = timed_passes(workload, args.seconds)
            values = end_to_end(setup_s, walls, results)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = workload.describe()
    info["queries_per_load"] = workload.queries_per_load(results[0])
    info["op"] = workload.op
    info["unit"] = workload.unit
    if walls is None and values["topology.parses"]:
        info["space_parses"] = values["topology.parses"]
        info["repeated_parse_share"] = 1 - values["claims.distinct_ratio"]
    print("inputs: " + json.dumps(info, sort_keys=True))
    if walls is not None:
        print(f"passes: {len(walls)}  wall_s per pass: {[round(w, 3) for w in walls]}  "
              f"op samples: {sum(len(r.latencies) for r in results)}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:g}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:28s} {value:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
