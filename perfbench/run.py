"""cxsplit benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload sweep-osc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  One client sends the next pass
only after the previous one has finished, for ``--seconds`` seconds and at
least once; a pass is never cut short.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one extra traced pass (see README.md).  The exit code
is 1 when an output check failed and 2 when there is no cxsplit source to
run.  ``--workload all`` runs every workload, each in its own process.
"""

import os

# Pinned before numpy is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep-osc", "sweep-pde", "design-scan", "reference-osc")
SETUP_PROBES = 11
TIME_UNITS = ("s", "ms", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's default_rng)")
    return args


def setup_probes(workload, count):
    """Set-up times of ``count`` fresh interpreters, at nominal speed."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           *workload.probe_args()]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def provenance(args, workload, built):
    try:
        sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        sha = ""
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": sha or None,     # None outside a git checkout
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "reference_built_before_timing": built,
        "reference_from_cache": workload.reference_from_cache(),
    }


def quantile(values, q):
    """Inclusive-method quantile, 0 for an empty sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sweep_metrics(passes, factors):
    """Step throughput and cost per a-flow of the untraced passes."""
    rates = [sum(n for _, _, n in p.points) / (p.wall * f)
             for p, f in zip(passes, factors) if p.points]
    per_aflow = sorted(wall * f / aflows * 1e6 for p, f in zip(passes, factors)
                       for wall, aflows, _ in p.points if aflows)
    return {
        "bench.steps_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "bench.us_per_aflow_p50": (quantile(per_aflow, 50), "us"),
        "bench.us_per_aflow_p90": (quantile(per_aflow, 90), "us"),
    }


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, STATE_DIR)
    built = workload.prepare()
    # Set-up noise comes in bursts of seconds, so the probes are split
    # between the start and the end of the run; none run while tracing.
    probes = 0 if args.trace else SETUP_PROBES
    setup_times = setup_probes(workload, probes // 2)

    passes = []
    tracer = tracing.Tracer()
    with speed.SpeedMonitor() as monitor:
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(workload.run_pass())
        if args.trace:
            tracer.install()
            try:
                traced = workload.run_pass()
            finally:
                tracer.uninstall()
    setup_times += setup_probes(workload, probes - probes // 2)
    scaled = [monitor.scaled(p.start, p.end) for p in passes]
    factors = [s / p.wall for s, p in zip(scaled, passes)]
    wall_s = statistics.median(scaled)
    raw_wall_s = statistics.median(p.wall for p in passes)

    if args.trace:
        factor = monitor.scaled(traced.start, traced.end) / traced.wall
        metrics = {name: (value * factor if unit in TIME_UNITS else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        metrics.update(sweep_metrics(passes, factors))
        metrics["trace.overhead_frac"] = (traced.wall * factor / wall_s - 1.0, "ratio")
        passes.append(traced)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "ratio")
    print(f"provenance: {json.dumps(provenance(args, workload, built))}")
    print(f"passes: {len(passes)}  attempted: {attempted}  failed: {failed}  "
          f"unscaled median pass: {raw_wall_s:.6g} s  "
          f"median speed factor: {statistics.median(factors):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process; one combined result line."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cxsplit" / "__init__.py").is_file():
        print(f"error: no cxsplit source under {SRC}", file=sys.stderr)
        return 2
    # Nothing may fall back to the user's ~/.cache/cxsplit.
    os.environ["CXSPLIT_CACHE_DIR"] = str(STATE_DIR / "cache")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
