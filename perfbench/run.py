"""warpmatch benchmark: one workload, inputs from a seed, metrics as JSON.

    python3 perfbench/run.py --workload {swim,rank,align} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run sets up its inputs several times, then
repeats the workload's solve until S seconds have passed, checks the first
solve's output, and prints the end-to-end metrics.  With `--trace 1` it does
the same untraced solves, then one more setup and solve with every layer
function wrapped (see tracer.py), and prints the per-layer metrics.  The last
line of stdout is always `{"correct", "attempted", "failed", "metrics"}`.
Outputs, the full record and the spans go to `.perfbench_out/`.
"""

import os

# Fixed before numpy loads, and inherited by forked pool workers: BLAS
# threading changes training time, so it is held equal across commits.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up repeats until both limits are met; setup_s is the median.  Cheap
# set-ups (a few ms) need many repeats for a steady median.
SETUP_REPS = 5
SETUP_MIN_S = 2.0
# The matrix fan-out of `rank`; never more processes than usable cores.
RANK_WORKERS = min(2, len(os.sched_getaffinity(0)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "pairs_per_s": "1/s",
    "top1": "fraction",
    "top5": "fraction",
    "peak_rss_mb": "MiB",
}


def import_warpmatch():
    """Import the checkout's own warpmatch, never an installed copy."""
    if not (SRC / "warpmatch" / "__init__.py").is_file():
        sys.exit(f"error: no warpmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import warpmatch
    if Path(warpmatch.__file__).resolve().parent != SRC / "warpmatch":
        sys.exit(f"error: imported warpmatch from {warpmatch.__file__}, not {SRC}")
    return warpmatch


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_info(workers):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "workers": workers,
    }


def peak_rss_mib():
    """ru_maxrss of this process plus ru_maxrss of its reaped children, in MiB.

    On Linux the children's figure is the peak of the largest single child
    (here a distance-matrix pool worker), not a sum over children.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_checks(workload, out):
    try:
        return workload.check(out)
    except Exception as exc:  # a crashing check is a failed check
        return [(f"check raised {type(exc).__name__}: {exc}", False)]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat; (0, 0) if absent.

    On a shared virtual machine, time the hypervisor gives to other guests
    slows every solve; the steal share of the timed phase says how much.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def timed_solves(workload, seconds, workers):
    """Repeat the solve until `seconds` have passed; keep the first output."""
    times, qualities = [], []
    first = None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = workload.solve(len(times), workers)
        times.append(time.perf_counter() - t0)
        qualities.append(workload.quality(out))
        if first is None:
            first = out
    return first, times, qualities


def end_to_end(workload, setup_times, solve_times, qualities, first, record):
    """The end-to-end metrics of the untraced phases."""
    top1, top5 = qualities[0]
    solve_s = statistics.median(solve_times)
    values = {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve_s,
        "pairs_per_s": workload.pairs(first) / solve_s,
        "top1": top1,
        "top5": top5,
        "peak_rss_mb": peak_rss_mib(),
    }
    if workload.name == "align":
        latency = sorted(first["latency"])
        record["pair_latency_ms"] = {"n": len(latency),
                                     "p50": tracer.percentile(latency, 0.50) * 1e3,
                                     "p99": tracer.percentile(latency, 0.99) * 1e3}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(workload, workers, untraced_s, untraced_quality, workdir):
    """One traced set-up and solve; returns (metrics, checks)."""
    spans = tracer.Tracer()
    with spans.installed():
        with spans.phase("setup"):
            workload.setup()
        with spans.phase("solve"):
            t0 = time.perf_counter()
            out = workload.solve(0, workers)
            traced_s = time.perf_counter() - t0
        layer_phases = ["setup", "solve"]
        if workers > 1:
            # Spans in forked pool workers are lost: take the layers inside
            # the matrix from the same solve at 1 worker.
            with spans.phase("solve_1worker"):
                single_out = workload.solve(1, 1)
            layer_phases = ["setup", "solve_1worker"]
    spans.write(workdir / "spans.jsonl")

    quality = workload.quality(out)
    checks = run_checks(workload, out)
    checks.append(("traced solve quality equals untraced", quality == untraced_quality))
    metrics = spans.layer_metrics(layer_phases)
    parallel_eff = 0.0
    if workers > 1:
        checks.append(("1-worker solve quality equals multi-worker",
                       workload.quality(single_out) == quality))
        many = spans.phase_seconds("solve", "swim.dpw_distance_matrix")
        one = spans.phase_seconds("solve_1worker", "swim.dpw_distance_matrix")
        parallel_eff = one / (workers * many) if many else 0.0
    metrics["swim.matrix.parallel_eff"] = (parallel_eff, "ratio")
    metrics["trace.untraced_solve_s"] = (untraced_s, "s")
    metrics["trace.traced_solve_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(spans.spans), "count")
    return metrics, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("swim", "rank", "align"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_warpmatch()
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**63, workdir)
    workers = RANK_WORKERS if args.workload == "rank" else 1

    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    steal0, total0 = cpu_ticks()
    first, solve_times, qualities = timed_solves(workload, args.seconds, workers)
    steal1, total1 = cpu_ticks()
    steal_share = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0

    checks = run_checks(workload, first)
    checks += [(f"solve {i} quality equals solve 0", q == qualities[0])
               for i, q in enumerate(qualities[1:], 1)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(workers),
              "setup_times_s": setup_times, "solve_times_s": solve_times,
              "cpu_steal_share": steal_share}
    if args.trace:
        metrics, traced_checks = per_layer(workload, workers, statistics.median(solve_times),
                                           qualities[0], workdir)
        checks += traced_checks
    else:
        metrics = end_to_end(workload, setup_times, solve_times, qualities, first, record)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    failed = [name for name, ok in checks if not ok]
    error_rate = len(failed) / len(checks)
    record.update(checks={"attempted": len(checks), "failed": failed, "error_rate": error_rate},
                  metrics=metrics)
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(solve_times)} solve(s), {len(checks)} checks, {len(failed)} failed")
    print("# machine " + json.dumps(record["machine"]))
    print(f"# cpu steal share during the timed solves: {steal_share:.4f}")
    for name in failed:
        print(f"# FAILED {name}")
    print(f"# {'error_rate':<40} {error_rate!r}")
    for name, m in metrics.items():
        print(f"# {name:<40} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
