"""Command-line interface: ``simulate``, ``fit``, and ``design`` subcommands.

Exit codes: 0 success, 2 validation error (flags, config, dataset format),
3 runtime or degeneracy error (non-converged fit, zero-variance test,
failed study row), 130 interrupted (SIGINT, as from Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import stat
import sys

from .config import load_study_config
from .datagen import RngStream, generate_trial
from .design import DesignInputs, sample_size, schoenfeld_events
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateTestError,
    InvalidModelError,
    InvalidParameterError,
)
from .inference import TIE_METHODS, AnalysisSpec, Method, _normal_cdf, cox_fit, logrank
from .io import (
    read_subject_records,
    results_to_records,
    write_results_csv,
    write_sidecar_json,
    write_subject_records,
)
from .simulate import run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_METHOD_FLAGS = {m.value: m for m in Method}

# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep the memory a run frees mapped, for its next batch to reuse.

    glibc's malloc hands a freed block back to the kernel once its dynamic
    thresholds allow, so each replicate batch page-faults its numpy
    temporaries (about 0.25-1.3 MB each) in again. Here arrays under 32 MiB
    (the largest mmap threshold on 64-bit) come from the heap, and up to
    64 MiB of freed heap stays mapped. Setting one threshold stops glibc
    adjusting the other, so the trim threshold is set only once the mmap
    threshold took. Pool workers forked later inherit both. No result
    changes. A C library without ``mallopt`` is left as it is.
    """
    import ctypes  # ~2 ms, kept off ``import stratsurv.cli``

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # Accepted both before and after the subcommand; the subparser copies use
    # SUPPRESS so they never clobber a value parsed at the top level.
    kw = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--seed", type=int, **({"default": None} if top_level else kw),
                        help="override the configured master seed")
    parser.add_argument("--workers", type=int, **({"default": None} if top_level else kw),
                        help="worker processes for simulation (default and cap: usable "
                             "CPUs; never more than the replicates)")
    parser.add_argument("--json", action="store_true",
                        **({"default": False} if top_level else kw),
                        help="emit machine-readable JSON on stdout")


@functools.cache  # built once per process: each parse fills a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratsurv",
        description="Stratified survival analysis and event-driven trial simulation.",
    )
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured Monte Carlo study")
    p_sim.add_argument("config", help="study configuration file")
    p_sim.add_argument("-o", "--output", default="results.csv",
                       help="result CSV path (default: results.csv)")
    p_sim.add_argument("--sidecar", default=None,
                       help="JSON sidecar path (default: <output>.json)")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="override the configured replicate count")
    p_sim.add_argument("--dump-datasets", metavar="DIR", default=None,
                       help="write replicate 0 of each row as a dataset CSV into DIR")
    _add_global_flags(p_sim, top_level=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="analyze a subject-level dataset CSV")
    p_fit.add_argument("dataset", help="dataset CSV path")
    p_fit.add_argument("--method", required=True, choices=sorted(_METHOD_FLAGS),
                       help="analysis method")
    p_fit.add_argument("--ties", default=AnalysisSpec.tie_method, choices=TIE_METHODS,
                       help="tie handling for Cox methods (default: %(default)s)")
    _add_global_flags(p_fit, top_level=False)
    p_fit.set_defaults(func=cmd_fit)

    p_des = sub.add_parser("design", help="required events and sample size")
    p_des.add_argument("--hr", type=float, required=True, help="alternative hazard ratio")
    p_des.add_argument("--alpha", type=float, default=DesignInputs.alpha_one_sided,
                       help="one-sided type-I error (default: %(default)s)")
    p_des.add_argument("--power", type=float, default=DesignInputs.power,
                       help="target power (default: %(default)s)")
    p_des.add_argument("--allocation", type=float, default=DesignInputs.allocation,
                       help="treatment allocation fraction (default: %(default)s)")
    p_des.add_argument("--event-fraction", type=float, default=DesignInputs.event_fraction,
                       help="expected event fraction at analysis (default: %(default)s)")
    _add_global_flags(p_des, top_level=False)
    p_des.set_defaults(func=cmd_design)
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    study = load_study_config(args.config)
    study = study.with_overrides(seed=args.seed, workers=args.workers,
                                 replicates=args.replicates)
    configs = study.sim_configs()
    sidecar = args.sidecar if args.sidecar is not None else args.output + ".json"
    dumps = [] if args.dump_datasets is None else [
        os.path.join(args.dump_datasets, f"row{i:02d}_replicate0.csv")
        for i in range(len(configs))]
    written: dict[object, str] = {}
    # each output: its flag, the flag's value and the file it writes; the
    # dump directory is made only after these checks pass
    for flag, value, path in (("-o", args.output, args.output),
                              ("--sidecar", sidecar, sidecar),
                              *(("--dump-datasets", args.dump_datasets, name)
                                for name in dumps)):
        if value == "":
            kind = "directory" if flag == "--dump-datasets" else "file"
            raise InvalidParameterError(f"{flag} must name a {kind}, not an empty path")
        try:
            info = os.stat(path)
        except OSError:
            directory = os.path.dirname(os.path.abspath(path))
            if flag != "--dump-datasets" and not os.path.isdir(directory):
                raise InvalidParameterError(f"cannot write {path}: no directory {directory}")
            key: object = os.path.realpath(path)
        else:
            if stat.S_ISDIR(info.st_mode):
                raise InvalidParameterError(f"cannot write {path}: it is a directory")
            if not stat.S_ISREG(info.st_mode):
                continue  # a pipe, terminal or device: writes append, none overwrites
            key = (info.st_dev, info.st_ino)  # by inode, so hard links meet
        if key in written:
            raise InvalidParameterError(f"cannot write both {written[key]} and {path}: "
                                        "they are the same file")
        written[key] = path
    if args.dump_datasets is not None:
        try:
            os.makedirs(args.dump_datasets, exist_ok=True)
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot create dataset directory {args.dump_datasets}: "
                f"{exc.strerror or exc}") from None
    rows = run_study(configs, workers=study.workers)

    path = args.output  # the file being written, named if a write fails
    try:
        write_results_csv(path, rows)
        path = sidecar
        write_sidecar_json(path, study.to_mapping(), rows)
        for cfg, path in zip(configs, dumps):
            dataset = generate_trial(cfg.design, cfg.scenario, RngStream(cfg.master_seed, 0))
            write_subject_records(path, dataset)
    except OSError as exc:  # ENOSPC may surface at close, with no filename
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME

    text = [f"true_hr={row.config.design.true_hr:g} "
            f"events={row.config.design.target_events}: "
            f"{'failed: ' + row.error if row.error else 'ok'}" for row in rows]
    text.append(f"wrote {args.output} and {sidecar}")
    print(json.dumps(results_to_records(rows), indent=2) if args.json else "\n".join(text))
    failed = sum(row.error is not None for row in rows)
    if failed:
        print(f"{failed} of {len(rows)} rows failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = read_subject_records(args.dataset)
    method = _METHOD_FLAGS[args.method]
    if method in (Method.LOG_RANK, Method.STRATIFIED_LOG_RANK):
        result = logrank(dataset, stratified=method is Method.STRATIFIED_LOG_RANK)
        record = {
            "method": method.value,
            "observed_minus_expected": result.observed_minus_expected,
            "variance": result.variance,
            "z": result.z,
            "p_one_sided": result.p_one_sided,
            "strata_used": result.strata_used,
        }
        text = [f"method: {method.value}",
                f"O-E: {result.observed_minus_expected:.6g}  "
                f"variance: {result.variance:.6g}",
                f"z: {result.z:.6g}  one-sided p: {result.p_one_sided:.6g}  "
                f"strata used: {result.strata_used}"]
    else:
        fit = cox_fit(dataset, AnalysisSpec(method, tie_method=args.ties))
        if not fit.converged:
            raise InvalidModelError(f"fit did not converge: {fit.diagnostic}")
        p_value = _normal_cdf(fit.wald_z)
        record = {
            "method": method.value,
            "tie_method": args.ties,
            "hr": fit.treatment_hr,
            "log_hr": fit.treatment_log_hr,
            "se": fit.treatment_se,
            "wald_z": fit.wald_z,
            "p_one_sided": p_value,
            "coefficients": dict(zip(fit.covariate_names, fit.beta.tolist())),
            "iterations": fit.iterations,
        }
        text = [f"method: {method.value} ({args.ties} ties)",
                f"HR estimate: {fit.treatment_hr:.6g}",
                f"log-HR: {fit.treatment_log_hr:.6g}  SE: {fit.treatment_se:.6g}",
                f"Wald z: {fit.wald_z:.6g}  one-sided p: {p_value:.6g}"]
        if len(fit.covariate_names) > 1:
            text.append("coefficients: " + "  ".join(
                f"{name}={value:.6g}" for name, value in zip(fit.covariate_names, fit.beta)))
    print(json.dumps(record, indent=2) if args.json else "\n".join(text))
    return EXIT_OK


def cmd_design(args: argparse.Namespace) -> int:
    inputs = DesignInputs(hr=args.hr, alpha_one_sided=args.alpha, power=args.power,
                          allocation=args.allocation, event_fraction=args.event_fraction)
    events = schoenfeld_events(inputs)
    subjects = sample_size(events, args.event_fraction)
    record = {"hr": args.hr, "events": events, "sample_size": subjects}
    text = [f"events (D): {events}", f"sample size (N): {subjects}"]
    print(json.dumps(record) if args.json else "\n".join(text))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvalidModelError, DegenerateTestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT  # the status a shell gives a process SIGINT ended


if __name__ == "__main__":
    sys.exit(main())
