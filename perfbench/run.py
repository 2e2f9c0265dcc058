"""stratsurv benchmark: Monte Carlo throughput, tied-data fit latency and
start-up time, with a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_small_n --seed 1 --seconds 10 --trace 0

Every workload is a closed loop of ``stratsurv.cli.main`` calls in this
process, each starting when the previous one returned. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced calls
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Any
operation that raises, exits nonzero or fails its output check counts as
failed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

# The program comes from this checkout's sources, never from an installed copy.
sys.path[:0] = [SRC, HERE]
try:
    import numpy
    import scipy

    import calibration
    import layers
    import stratsurv
    import workloads
    from tracer import Tracer, patched
except ImportError as exc:
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

#: Timed operations per run even when one outlasts ``--seconds``.
MIN_OPS = 3
#: Fresh interpreters started per run to time ``import stratsurv.cli``.
SETUP_SAMPLES = 5
#: Replicates per row of the two profiled runs whose call counts are differenced.
COUNT_REPLICATES = 10
#: Breslow fits timed on the tied dataset, each on a fresh read of the file.
BRESLOW_FITS = 3
#: Small inputs of other workloads traced along with each workload, chosen so
#: that together they reach every layer the workload itself does not.
COMPANIONS = {
    "mc_small_n": ("study_unequal_w2", "fit_tied_100k"),
    "study_unequal_w2": ("fit_tied_100k",),
    "fit_tied_100k": ("study_unequal_w2",),
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: Run in a fresh interpreter: the import of ``stratsurv.cli``, bracketed by
#: calibrations taken on the CPU that runs it.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
before = calibrate()
import stratsurv.cli
print(json.dumps([before, calibrate()]))
"""


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import ``stratsurv.cli``, scaled.

    The interpreter's start, import and exit are timed from outside; the two
    calibrations it runs are subtracted and used to scale the rest.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, HERE], env=_env(), cwd=ROOT,
                          check=True, capture_output=True, text=True)
    wall = time.perf_counter() - start
    before, after = json.loads(proc.stdout)
    return calibration.scaled([wall - before - after], [before, after])[0]


def import_profile() -> dict[str, float]:
    """Cumulative import times (ms) from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stratsurv.cli"],
                          env=_env(), cwd=ROOT, check=True, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    return {"cli.import_ms": cumulative.get("stratsurv.cli", 0.0),
            "cli.import_scipy_stats_ms": cumulative.get("scipy.stats", 0.0)}


def _own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def fresh_worker_peak_kb() -> int:
    """Peak RSS of a forked pool worker that has done no work."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        return pool.submit(_own_peak_kb).result()


def peak_rss_mb(worker_base_kb: int | None = None) -> float:
    """Peak RSS of this process, plus the largest pool worker's growth.

    A forked worker's RSS counts the shared pages of this process that it
    touches, so adding the two peaks would count the interpreter, numpy and
    scipy twice, and taking the larger would hide a worker's growth behind
    this process's peak. A worker's growth is its peak minus
    ``worker_base_kb``, the peak of a fresh worker forked from this process.
    """
    own = _own_peak_kb()
    if worker_base_kb is None:
        return own / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(0, child - worker_base_kb)) / 1024.0


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def load_reference(name: str, seed: int) -> tuple[dict | None, str | None]:
    """Stored expected output for this workload and seed, and any warning."""
    if seed != workloads.DEFAULT_SEED or not os.path.exists(REFERENCE):
        return None, None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["numpy"] != numpy.__version__:
        return None, (f"warning: references were made with numpy {ref['numpy']}, this is "
                      f"numpy {numpy.__version__}; the reference comparison is skipped")
    return ref["workloads"][name], None


def calls_per_replicate(workload) -> float:
    """Python-level calls per replicate, from two profiled ``simulate`` runs.

    Runs the workload's study at the default seed with ``COUNT_REPLICATES``
    and twice that many replicates per row, after one unprofiled run that
    pays the one-time costs. The difference of the two call totals leaves
    out every per-run cost. The count repeats exactly.
    """
    argvs = []
    for k in (1, 2):
        path = os.path.join(workload.workdir, f"count{k}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_maker(workloads.DEFAULT_SEED, k * COUNT_REPLICATES))
        argvs.append(workload.argv(config_path=path, workers=1, output=f"count{k}.csv"))
    workloads.run_cli(argvs[0])
    counts = []
    for argv in argvs:
        gc.collect()  # finalizers of earlier calls' garbage must not be counted
        profile = cProfile.Profile()
        profile.enable()
        workloads.run_cli(argv)
        profile.disable()
        counts.append(pstats.Stats(profile).total_calls)
    return (counts[1] - counts[0]) / (COUNT_REPLICATES * len(workload.configs))


def run_untraced(workload, seconds: float):
    """Warm-up operation, then timed operations until ``seconds`` have passed."""
    ops = [workload.attempt()]
    pooled = getattr(workload, "workers", 1) > 1
    worker_base_kb = fresh_worker_peak_kb() if pooled else None
    timed, calibrations = [], [calibration.calibrate()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_OPS:
        timed.append(workload.attempt())
        calibrations.append(calibration.calibrate())
    raw = {"call_wall_s_p50": statistics.median(op.wall_s for op in timed),
           "calibration_s_p50": statistics.median(calibrations)}
    if pooled:  # read before the set-up probes add interpreters to the children
        raw["worker_peak_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        raw["fresh_worker_peak_mb"] = worker_base_kb / 1024.0
    walls = calibration.scaled([op.wall_s for op in timed], calibrations)
    metrics = {
        "call_s_p50": statistics.median(walls),
        "items_per_s": sum(op.units for op in timed) / sum(walls),
        "peak_rss_mb": peak_rss_mb(worker_base_kb),
        "setup_s": statistics.median(import_seconds() for _ in range(SETUP_SAMPLES)),
    }
    return ops + timed, timed, metrics, raw


def traced_extras(workload, tracer, owner: str) -> list:
    """Traced calls after the loop: a pooled study at one worker, then probes."""
    ops = []
    mc = isinstance(workload, workloads.McWorkload)
    with patched(tracer, layers.targets()):
        if mc and workload.workers > 1:
            tracer.start_op(f"{owner}/{layers.SERIAL}")
            ops.append(workload.attempt(workload.serial_op))
        tracer.start_op(f"{owner}/{layers.PROBE}")
        if mc and workload.dump_dir is not None:
            ops.append(workload.attempt(workload.dump_op))
        if not mc:
            ops += [workload.attempt(workload.breslow_op) for _ in range(BRESLOW_FITS)]
    return ops


def run_traced(workload, seconds: float, tracer):
    """Alternate untraced and traced operations, then trace the companions.

    A companion is a small input of another workload. It supplies the layers
    this workload never reaches, so that every per-layer metric is measured.
    """
    metrics = import_profile()
    ops = [workload.attempt()]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_OPS:
        plain.append(workload.attempt())
        with patched(tracer, layers.targets()):
            tracer.start_op(f"own/op{len(traced)}")
            traced.append(workload.attempt())
    ops += plain + traced + traced_extras(workload, tracer, "own")
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(op.wall_s for op in traced)
                                          - statistics.median(op.wall_s for op in plain))

    counted = workload if isinstance(workload, workloads.McWorkload) else None
    for name in COMPANIONS[workload.name]:
        companion = workloads.make(name, os.path.join(workload.workdir, name),
                                   workload.seed, small=True)
        ops.append(companion.attempt())
        with patched(tracer, layers.targets()):
            tracer.start_op("companion/op0")
            ops.append(companion.attempt())
        ops += traced_extras(companion, tracer, "companion")
        if counted is None and isinstance(companion, workloads.McWorkload):
            counted = companion
    metrics["simulate.calls_per_replicate"] = calls_per_replicate(counted)
    metrics["inference.tied_event_blocks"] = (
        workload.tied_event_blocks() if isinstance(workload, workloads.FitWorkload) else 0)
    sources = dict.fromkeys(metrics, "own")
    if counted is not workload:
        sources["simulate.calls_per_replicate"] = "companion"

    values, span_sources = layers.with_sources(layers.span_metrics(tracer, "own"),
                                               layers.span_metrics(tracer, "companion"))
    metrics.update(values)
    sources.update(span_sources)
    return ops, traced, metrics, {"layer_sources": sources}


def write_reference() -> int:
    """Store every workload's first-operation output at the default seed."""
    out = {"numpy": numpy.__version__, "scipy": scipy.__version__,
           "python": sys.version.split()[0], "seed": workloads.DEFAULT_SEED,
           "workloads": {}}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORK, f"reference-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            workload = workloads.make(name, workdir, workloads.DEFAULT_SEED)
            op = workload.op()
            if op.failed:
                print(f"{name}: {op.problems}", file=sys.stderr)
                return 1
            if isinstance(workload, workloads.McWorkload):
                out["workloads"][name] = {"rows": json.loads(workload.first["sidecar"])["rows"]}
            else:
                out["workloads"][name] = json.loads(workload.first["stdout"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def describe(name, unit, value, note="") -> str:
    return f"  {name:<40} {value:>16.6g} {unit:<6} {note}"


def main(argv: list[str] | None = None) -> int:
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import stratsurv from {SRC}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(stratsurv.__file__).startswith(SRC + os.sep):
        print(f"perfbench: stratsurv was imported from {stratsurv.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs in reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    load_before = os.getloadavg()
    reference, warning = load_reference(args.workload, args.seed)
    if warning:
        print(warning, file=sys.stderr)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer()
    try:
        workload = workloads.make(args.workload, workdir, args.seed)
        workload.reference = reference
        if args.trace:
            ops, timed, metrics, raw = run_traced(workload, args.seconds, tracer)
        else:
            ops, timed, metrics, raw = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer.spans:
            tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv"))

    units = layers.PER_LAYER if args.trace else layers.END_TO_END
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "program_seeds": [c.master_seed for c in getattr(workload, "configs", [])]
        or [workloads.derived_seed(args.seed, 3)],
        "cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "reference_checked": reference is not None,
        "calibration_reference_s": calibration.REFERENCE_S, **raw,
    }
    print("provenance " + json.dumps(provenance))
    for op in ops:
        for problem in op.problems:
            print(f"FAILED: {problem}")
    print(f"{args.workload}: {len(timed)} timed operations of {workload.units_per_op} "
          f"{workload.unit_label} (closed loop, 1 client)")
    sources = raw.get("layer_sources", {})
    for name, unit in units.items():
        print(describe(name, unit, metrics[name], sources.get(name, "")))
    if args.trace:
        print(layers.coverage(tracer, "own"))
    elif isinstance(workload, workloads.McWorkload):
        print(describe("replicates_per_s", "1/s", metrics["items_per_s"],
                       f"over {len(timed)} calls"))
    else:
        print(describe("fit_s_p50", "s", metrics["call_s_p50"],
                       f"median of {len(timed)} calls"))
    print(describe("error_rate", "ratio", failed / attempted,
                   f"{failed} of {attempted} operations"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
