"""Metric names, units, and the per-layer numbers derived from spans.

Layers are stratsurv's modules. ``trial`` and ``design`` run only inside
config loading, so their cost is part of ``config.load_ms``. A layer that a
workload never reaches is measured on the small companion inputs of its
traced run (see ``run.COMPANIONS``).
"""

from __future__ import annotations

import math
import statistics

import stratsurv
from stratsurv import cli, simulate

from tracer import ATTRS, END, NAME, OP, PARENT, START, Tracer
from workloads import COX_KEYS, METHOD_KEYS

END_TO_END = {
    "setup_s": "s",
    "call_s_p50": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_scipy_stats_ms": "ms",
    "cli.simulate_self_ms": "ms",
    "cli.fit_self_ms": "ms",
    "config.load_ms": "ms",
    "datagen.generate_us": "us",
    "datagen.subjects_per_replicate": "count",
    "inference.lr_us": "us",
    "inference.strat_lr_us": "us",
    **{f"inference.{key}_us": "us" for key in COX_KEYS},
    **{f"inference.newton_iters_mean.{key}": "count" for key in COX_KEYS},
    **{f"inference.fit_usable_frac.{key}": "ratio" for key in COX_KEYS},
    "inference.strat_cox_efron_s": "s",
    "inference.strat_cox_breslow_s": "s",
    "inference.tied_event_blocks": "count",
    "simulate.harness_us": "us",
    "simulate.aggregate_ms": "ms",
    "simulate.scaling_efficiency_w2": "ratio",
    "simulate.pool_overhead_s": "s",
    "simulate.calls_per_replicate": "count",
    "io.read_s": "s",
    "io.read_rows_per_s": "1/s",
    "io.write_results_ms": "ms",
    "io.dump_datasets_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Operation roles: the benchmark's own probe calls, and the one-worker
#: call of a pooled workload.
PROBE = "probe"
SERIAL = "serial"


def _subjects(args, kwargs, result, exc):
    return {"subjects": result.n_subjects if result is not None else 0}


def _replicate(args, kwargs):
    rng = args[2] if len(args) > 2 else kwargs.get("rng")
    return getattr(rng, "replicate_index", None)


def _logrank_kind(args, kwargs, result, exc):
    stratified = kwargs.get("stratified", args[1] if len(args) > 1 else False)
    return {"kind": "strat_lr" if stratified else "lr"}


def _cox_attrs(args, kwargs, result, exc):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    usable = (result is not None and result.converged
              and math.isfinite(result.treatment_se))
    return {"method": METHOD_KEYS.get(spec.method.value, spec.method.value),
            "ties": spec.tie_method,
            "iterations": result.iterations if result is not None else -1,
            "usable": int(usable)}


def _run_replicates(args, kwargs, result, exc):
    config = args[0]
    workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
    return {"workers": workers, "replicates": config.replicates}


def _cli_command(args, kwargs, result, exc):
    argv = args[0] if args else kwargs.get("argv")
    return {"cmd": argv[0] if argv else ""}


def targets():
    """(module, attribute, span name, attrs, replicate_of) for every layer call.

    Each function is patched where its caller looks it up: ``cli`` imports
    names into its own namespace, ``run_study`` and ``run_replicate`` use the
    names bound in ``simulate``, and the benchmark's probes call the package.
    """
    out = [(cli, "main", "cli.main", _cli_command, None),
           (cli, "load_study_config", "config.load_study_config", None, None),
           (simulate, "run_replicates", "simulate.run_replicates", _run_replicates, None),
           (simulate, "aggregate", "simulate.aggregate", None, None)]
    for module in (cli, simulate, stratsurv):
        out += [(module, "generate_trial", "datagen.generate_trial", _subjects, _replicate),
                (module, "logrank", "inference.logrank", _logrank_kind, None),
                (module, "cox_fit", "inference.cox_fit", _cox_attrs, None)]
    for module in (cli, stratsurv):
        out.append((module, "read_subject_records", "io.read_subject_records", _subjects, None))
    out += [(cli, "write_results_csv", "io.write_results_csv", None, None),
            (cli, "write_sidecar_json", "io.write_sidecar_json", None, None),
            (cli, "write_subject_records", "io.write_subject_records", None, None)]
    return out


def _mean(values, scale: float = 1.0) -> float | None:
    """Mean of ``values`` divided by ``scale``; None when the layer was not reached."""
    return sum(values) / len(values) / scale if values else None


def _per(total_ns: int, count: int, scale: float) -> float | None:
    return total_ns / scale / count if count else None


def span_metrics(tracer: Tracer, owner: str) -> dict[str, float | None]:
    """Per-layer metrics from the spans of one owner's operations.

    An operation id is ``<owner>/<role>``; the role is ``op<n>`` for a loop
    call, ``SERIAL`` or ``PROBE``. A metric whose layer none of the owner's
    spans reached is None.
    """
    all_spans = tracer.spans
    own_ns = tracer.self_ns()
    mine = [i for i, rec in enumerate(all_spans)
            if rec[OP] is not None and rec[OP].startswith(owner + "/")]

    def role(rec):
        return rec[OP].split("/", 1)[1]

    def dur(rec):
        return rec[END] - rec[START]

    def named(name, keep=lambda rec: True):
        return [i for i in mine if all_spans[i][NAME] == name and keep(all_spans[i])]

    def parent_name(rec):
        return all_spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None

    def attr(i, key):
        return all_spans[i][ATTRS][key]

    def durations(indices):
        return [dur(all_spans[i]) for i in indices]

    out: dict[str, float | None] = {}
    sims = named("cli.main", lambda r: r[ATTRS]["cmd"] == "simulate")
    fits = named("cli.main", lambda r: r[ATTRS]["cmd"] == "fit")
    out["cli.simulate_self_ms"] = _mean([own_ns[i] for i in sims], 1e6)
    out["cli.fit_self_ms"] = _mean([own_ns[i] for i in fits], 1e6)
    out["config.load_ms"] = _mean(durations(named("config.load_study_config")), 1e6)

    gens = named("datagen.generate_trial",
                 lambda r: parent_name(r) == "simulate.run_replicates")
    out["datagen.generate_us"] = _mean(durations(gens), 1e3)
    out["datagen.subjects_per_replicate"] = _mean([attr(i, "subjects") for i in gens])

    for kind in ("lr", "strat_lr"):
        calls = named("inference.logrank", lambda r: r[ATTRS]["kind"] == kind)
        out[f"inference.{kind}_us"] = _mean(durations(calls), 1e3)
    for key in COX_KEYS:
        calls = named("inference.cox_fit",
                      lambda r: r[ATTRS]["method"] == key and role(r) != PROBE)
        out[f"inference.{key}_us"] = _mean(durations(calls), 1e3)
        out[f"inference.newton_iters_mean.{key}"] = _mean(
            [attr(i, "iterations") for i in calls if attr(i, "iterations") >= 0])
        out[f"inference.fit_usable_frac.{key}"] = _mean([attr(i, "usable") for i in calls])
    efron = named("inference.cox_fit", lambda r: parent_name(r) == "cli.main"
                  and r[ATTRS]["method"] == "strat_cox" and r[ATTRS]["ties"] == "efron")
    out["inference.strat_cox_efron_s"] = _mean(durations(efron), 1e9)
    breslow = named("inference.cox_fit", lambda r: role(r) == PROBE
                    and r[ATTRS]["method"] == "strat_cox" and r[ATTRS]["ties"] == "breslow")
    out["inference.strat_cox_breslow_s"] = (
        statistics.median(durations(breslow)) / 1e9 if breslow else None)

    loops = named("simulate.run_replicates")
    serial = [i for i in loops if attr(i, "workers") == 1]
    pooled = [i for i in loops if attr(i, "workers") == 2]
    out["simulate.harness_us"] = _per(sum(own_ns[i] for i in serial),
                                      sum(attr(i, "replicates") for i in serial), 1e3)
    out["simulate.aggregate_ms"] = _mean(durations(named("simulate.aggregate")), 1e6)
    serial_s = sum(durations(i for i in serial if role(all_spans[i]) == SERIAL)) / 1e9
    pooled_s = _per(sum(durations(pooled)),
                    len({all_spans[i][OP] for i in pooled}), 1e9) or 0.0
    if serial_s > 0 and pooled_s > 0:
        out["simulate.scaling_efficiency_w2"] = serial_s / (2 * pooled_s)
        out["simulate.pool_overhead_s"] = pooled_s - serial_s / 2
    else:
        out["simulate.scaling_efficiency_w2"] = out["simulate.pool_overhead_s"] = None

    reads = named("io.read_subject_records")
    read_ns = sum(durations(reads))
    out["io.read_s"] = _mean(durations(reads), 1e9)
    out["io.read_rows_per_s"] = (
        sum(attr(i, "subjects") for i in reads) / (read_ns / 1e9) if read_ns else None)
    writes = named("io.write_results_csv") + named("io.write_sidecar_json")
    out["io.write_results_ms"] = _per(sum(durations(writes)), len(sims), 1e6)
    dumps = named("io.write_subject_records")
    out["io.dump_datasets_ms"] = _per(sum(durations(dumps)), len(sims), 1e6) if dumps else None
    return out


def with_sources(own: dict, companion: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Each metric from the workload's own spans, else from the companion's.

    The second dict names the source of each value: ``own``, ``companion``,
    or ``unreached`` when neither recorded a span of the layer; such a
    metric reads 0.
    """
    values, sources = {}, {}
    for name, value in own.items():
        for source, found in (("own", value), ("companion", companion[name]),
                              ("unreached", 0.0)):
            if found is not None:
                values[name], sources[name] = found, source
                break
    return values, sources


def coverage(tracer: Tracer, owner: str) -> str:
    """How the owner's serial replicate loops split over the layers.

    Each direct child span of a loop is counted with its full duration, so
    the layers and the harness (the loop's self time: the part no datagen or
    inference span covers) add up to the loop's wall time by definition.
    """
    spans = tracer.spans
    own_ns = tracer.self_ns()
    loops = {i for i, rec in enumerate(spans) if rec[NAME] == "simulate.run_replicates"
             and rec[ATTRS]["workers"] == 1 and rec[OP].startswith(owner + "/")}
    if not loops:
        return "coverage: no serial replicate loop was traced"
    by_layer = {"datagen": 0, "inference": 0}
    for rec in spans:
        if rec[PARENT] in loops:
            layer = rec[NAME].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + rec[END] - rec[START]
    harness = sum(own_ns[i] for i in loops)
    wall = sum(spans[i][END] - spans[i][START] for i in loops)
    loop_ops = {spans[i][OP] for i in loops}
    calls = [i for i, rec in enumerate(spans) if rec[NAME] == "cli.main" and rec[OP] in loop_ops]
    call_wall = sum(spans[i][END] - spans[i][START] for i in calls)
    cli_self = sum(own_ns[i] for i in calls)
    parts = " + ".join(f"{k} {v / 1e6:.1f} ms" for k, v in by_layer.items())
    return (f"coverage: replicate loops {wall / 1e6:.1f} ms = {parts} + "
            f"{harness / 1e6:.1f} ms in no datagen or inference span (simulate harness "
            f"self time, {100 * harness / max(1, wall):.1f}%); their cli calls "
            f"{call_wall / 1e6:.1f} ms, of which {cli_self / 1e6:.2f} ms "
            f"({100 * cli_self / max(1, call_wall):.2f}%) is in no layer span")
