"""Command-line interface: ``simulate``, ``fit``, and ``design`` subcommands.

Exit codes: 0 success, 2 validation error (flags, config, dataset format),
3 runtime or degeneracy error (non-converged fit, zero-variance test,
failed study row).
"""

from __future__ import annotations

import argparse
import json
import os
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
    rows = run_study(configs, workers=study.workers)

    write_results_csv(args.output, rows)
    sidecar = args.sidecar if args.sidecar is not None else args.output + ".json"
    write_sidecar_json(sidecar, study.to_mapping(), rows)

    if args.dump_datasets is not None:
        os.makedirs(args.dump_datasets, exist_ok=True)
        for i, cfg in enumerate(configs):
            dataset = generate_trial(cfg.design, cfg.scenario,
                                     RngStream(cfg.master_seed, 0))
            name = os.path.join(args.dump_datasets, f"row{i:02d}_replicate0.csv")
            write_subject_records(name, dataset)

    failed = [row for row in rows if row.error is not None]
    if args.json:
        print(json.dumps(results_to_records(rows), indent=2))
    else:
        for row in rows:
            label = (f"true_hr={row.config.design.true_hr:g} "
                     f"events={row.config.design.target_events}")
            print(f"{label}: {'failed: ' + row.error if row.error else 'ok'}")
        print(f"wrote {args.output} and {sidecar}")
    if failed:
        print(f"{len(failed)} of {len(rows)} rows failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = read_subject_records(args.dataset)
    method = _METHOD_FLAGS[args.method]
    if method in (Method.LOG_RANK, Method.STRATIFIED_LOG_RANK):
        result = logrank(dataset, stratified=method is Method.STRATIFIED_LOG_RANK)
        if args.json:
            print(json.dumps({
                "method": method.value,
                "observed_minus_expected": result.observed_minus_expected,
                "variance": result.variance,
                "z": result.z,
                "p_one_sided": result.p_one_sided,
                "strata_used": result.strata_used,
            }, indent=2))
        else:
            print(f"method: {method.value}")
            print(f"O-E: {result.observed_minus_expected:.6g}  "
                  f"variance: {result.variance:.6g}")
            print(f"z: {result.z:.6g}  one-sided p: {result.p_one_sided:.6g}  "
                  f"strata used: {result.strata_used}")
        return EXIT_OK

    fit = cox_fit(dataset, AnalysisSpec(method, tie_method=args.ties))
    if not fit.converged:
        print(f"error: fit did not converge: {fit.diagnostic}", file=sys.stderr)
        return EXIT_RUNTIME
    p_value = _normal_cdf(fit.wald_z)
    if args.json:
        print(json.dumps({
            "method": method.value,
            "tie_method": args.ties,
            "hr": fit.treatment_hr,
            "log_hr": fit.treatment_log_hr,
            "se": fit.treatment_se,
            "wald_z": fit.wald_z,
            "p_one_sided": p_value,
            "coefficients": dict(zip(fit.covariate_names, fit.beta.tolist())),
            "iterations": fit.iterations,
        }, indent=2))
    else:
        print(f"method: {method.value} ({args.ties} ties)")
        print(f"HR estimate: {fit.treatment_hr:.6g}")
        print(f"log-HR: {fit.treatment_log_hr:.6g}  SE: {fit.treatment_se:.6g}")
        print(f"Wald z: {fit.wald_z:.6g}  one-sided p: {p_value:.6g}")
        if len(fit.covariate_names) > 1:
            coefs = "  ".join(f"{name}={value:.6g}"
                              for name, value in zip(fit.covariate_names, fit.beta))
            print(f"coefficients: {coefs}")
    return EXIT_OK


def cmd_design(args: argparse.Namespace) -> int:
    inputs = DesignInputs(hr=args.hr, alpha_one_sided=args.alpha, power=args.power,
                          allocation=args.allocation, event_fraction=args.event_fraction)
    events = schoenfeld_events(inputs)
    subjects = sample_size(events, args.event_fraction)
    if args.json:
        print(json.dumps({"hr": args.hr, "events": events, "sample_size": subjects}))
    else:
        print(f"events (D): {events}")
        print(f"sample size (N): {subjects}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvalidModelError, DegenerateTestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
