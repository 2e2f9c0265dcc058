"""Study configuration files: a sectioned key = value format with validation.

Three sections describe a study: ``[scenario]`` (the data-generating
mechanism), ``[design]`` (hazard-ratio grid, event targets, accrual,
allocation), and ``[run]`` (replicates, seed, tie handling, SE scale,
workers). Unknown sections or keys are rejected, and every parse or
validation error reports the offending file line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .design import DesignInputs, schoenfeld_events
from .errors import ConfigError, InvalidParameterError
from .inference import TIE_METHODS
from .simulate import SE_SCALES, SimConfig
from .trial import STRATUM_COUNT, ScenarioKind, ScenarioSpec, TrialDesign

_SCENARIO_KEYS = (
    "kind", "base_median", "hr_x1", "hr_x2_level1", "hr_x2_level2", "hr_x3",
    "stratum_medians",
)
_DESIGN_KEYS = (
    "true_hr", "events", "accrual_months", "allocation", "randomization_prob",
    "alpha_one_sided", "power", "event_fraction",
)
_RUN_KEYS = ("replicates", "seed", "tie_method", "se_scale", "workers")
_SECTIONS = {"scenario": _SCENARIO_KEYS, "design": _DESIGN_KEYS, "run": _RUN_KEYS}


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved study description: one row per true hazard ratio."""

    scenario: ScenarioSpec
    true_hrs: tuple[float, ...]
    events: tuple[int, ...]
    accrual_months: float = 14.0
    allocation_weights: tuple[float, ...] = (1.0,) * STRATUM_COUNT
    randomization_prob: float = 0.5
    alpha_one_sided: float = 0.025
    power: float = 0.80
    event_fraction: float = 0.70
    replicates: int = 10000
    seed: int = 0
    tie_method: str = "efron"
    se_scale: str = "log"
    workers: int | None = None

    def __post_init__(self):
        if not self.true_hrs:
            raise InvalidParameterError("true_hr list must not be empty")
        if len(self.events) != len(self.true_hrs):
            raise InvalidParameterError(
                "events list must have one entry per true_hr value")
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError("workers must be at least 1")

    def sim_configs(self) -> list[SimConfig]:
        """One SimConfig per (true_hr, events) row; row i uses seed + i."""
        configs = []
        for i, (hr, d) in enumerate(zip(self.true_hrs, self.events)):
            design = TrialDesign.from_event_target(
                true_hr=hr,
                target_events=d,
                event_fraction=self.event_fraction,
                accrual_months=self.accrual_months,
                allocation_weights=self.allocation_weights,
                randomization_prob=self.randomization_prob,
                alpha_one_sided=self.alpha_one_sided,
                nominal_power=self.power,
            )
            configs.append(SimConfig(
                scenario=self.scenario,
                design=design,
                replicates=self.replicates,
                master_seed=self.seed + i,
                tie_method=self.tie_method,
                se_scale=self.se_scale,
                workers=self.workers,
            ))
        return configs

    def with_overrides(self, seed: int | None = None, workers: int | None = None,
                       replicates: int | None = None) -> "StudyConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if workers is not None:
            out = replace(out, workers=workers)
        if replicates is not None:
            out = replace(out, replicates=replicates)
        return out

    def to_mapping(self) -> dict[str, Any]:
        """JSON-ready echo of the full resolved configuration."""
        scen: dict[str, Any] = {"kind": self.scenario.kind.value}
        if self.scenario.base_median is not None:
            scen["base_median"] = self.scenario.base_median
        for key in ("hr_x1", "hr_x2_level1", "hr_x2_level2", "hr_x3"):
            value = getattr(self.scenario, key)
            if value is not None:
                scen[key] = value
        if self.scenario.stratum_medians is not None:
            scen["stratum_medians"] = list(self.scenario.stratum_medians)
        return {
            "scenario": scen,
            "design": {
                "true_hr": list(self.true_hrs),
                "events": list(self.events),
                "accrual_months": self.accrual_months,
                "allocation": list(self.allocation_weights),
                "randomization_prob": self.randomization_prob,
                "alpha_one_sided": self.alpha_one_sided,
                "power": self.power,
                "event_fraction": self.event_fraction,
            },
            "run": {
                "replicates": self.replicates,
                "seed": self.seed,
                "tie_method": self.tie_method,
                "se_scale": self.se_scale,
                "workers": self.workers,
            },
        }

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "StudyConfig":
        """Rebuild a StudyConfig from a ``to_mapping`` echo (e.g. a sidecar)."""
        scen = dict(mapping["scenario"])
        kind = ScenarioKind(scen.pop("kind"))
        if "stratum_medians" in scen:
            scen["stratum_medians"] = tuple(scen["stratum_medians"])
        scenario = ScenarioSpec(kind=kind, **scen)
        design = mapping["design"]
        run = mapping.get("run", {})
        return cls(
            scenario=scenario,
            true_hrs=tuple(design["true_hr"]),
            events=tuple(int(d) for d in design["events"]),
            accrual_months=float(design.get("accrual_months", 14.0)),
            allocation_weights=tuple(design.get("allocation", (1.0,) * STRATUM_COUNT)),
            randomization_prob=float(design.get("randomization_prob", 0.5)),
            alpha_one_sided=float(design.get("alpha_one_sided", 0.025)),
            power=float(design.get("power", 0.80)),
            event_fraction=float(design.get("event_fraction", 0.70)),
            replicates=int(run.get("replicates", 10000)),
            seed=int(run.get("seed", 0)),
            tie_method=run.get("tie_method", "efron"),
            se_scale=run.get("se_scale", "log"),
            workers=run.get("workers"),
        )


def load_study_config(path: str) -> StudyConfig:
    """Parse and validate a study configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = _parse_entries(text, path)
    return _build(entries, path)


def parse_study_config(text: str, path: str = "<config>") -> StudyConfig:
    """Like :func:`load_study_config` but from an in-memory string."""
    return _build(_parse_entries(text, path), path)


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


def _parse_entries(text: str, path: str) -> dict[str, dict[str, _Entry]]:
    entries: dict[str, dict[str, _Entry]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", path, lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", path, lineno)
        if key in entries[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", path, lineno)
        entries[section][key] = _Entry(value, lineno)
    if "scenario" not in entries:
        raise ConfigError("missing [scenario] section", path)
    if "design" not in entries:
        raise ConfigError("missing [design] section", path)
    return entries


def _build(entries: dict[str, dict[str, _Entry]], path: str) -> StudyConfig:
    scenario = _build_scenario(entries["scenario"], path)
    design = entries["design"]
    run = entries.get("run", {})

    true_hrs = _take(design, "true_hr", path, _float_list, required=True)
    accrual = _take(design, "accrual_months", path, _positive_float, default=14.0)
    allocation = _take(design, "allocation", path, _allocation, default=(1.0,) * STRATUM_COUNT)
    randomization = _take(design, "randomization_prob", path, _probability, default=0.5)
    alpha = _take(design, "alpha_one_sided", path, _probability, default=0.025)
    power = _take(design, "power", path, _probability, default=0.80)
    event_fraction = _take(design, "event_fraction", path, _event_fraction, default=0.70)

    events_entry = design.get("events")
    if events_entry is None or events_entry.value.strip().lower() == "auto":
        line = events_entry.line if events_entry is not None else None
        events = []
        for hr in true_hrs:
            try:
                inputs = DesignInputs(hr=hr, alpha_one_sided=alpha, power=power,
                                      allocation=randomization,
                                      event_fraction=event_fraction)
                events.append(schoenfeld_events(inputs))
            except InvalidParameterError as exc:
                raise ConfigError(f"cannot derive events for true_hr={hr}: {exc}",
                                  path, line)
        events = tuple(events)
    else:
        events = tuple(_int_list(events_entry.value, "events", path, events_entry.line))
        if len(events) != len(true_hrs):
            raise ConfigError("events list must have one entry per true_hr value",
                              path, events_entry.line)

    replicates = _take(run, "replicates", path, _positive_int, default=10000)
    seed = _take(run, "seed", path, _nonneg_int, default=0)
    tie_method = _take(run, "tie_method", path, _choice(TIE_METHODS), default="efron")
    se_scale = _take(run, "se_scale", path, _choice(SE_SCALES), default="log")
    workers = _take(run, "workers", path, _positive_int, default=None)

    try:
        return StudyConfig(
            scenario=scenario,
            true_hrs=tuple(true_hrs),
            events=events,
            accrual_months=accrual,
            allocation_weights=allocation,
            randomization_prob=randomization,
            alpha_one_sided=alpha,
            power=power,
            event_fraction=event_fraction,
            replicates=replicates,
            seed=seed,
            tie_method=tie_method,
            se_scale=se_scale,
            workers=workers,
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path)


def _build_scenario(section: dict[str, _Entry], path: str) -> ScenarioSpec:
    kind_entry = section.get("kind")
    if kind_entry is None:
        raise ConfigError("missing key 'kind' in [scenario]", path)
    try:
        kind = ScenarioKind(kind_entry.value.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(f"kind must be one of: {valid}", path, kind_entry.line)

    kwargs: dict[str, Any] = {}
    for key in ("base_median", "hr_x1", "hr_x2_level1", "hr_x2_level2", "hr_x3"):
        if key in section:
            kwargs[key] = _positive_float(section[key].value, key, path, section[key].line)
    if "stratum_medians" in section:
        entry = section["stratum_medians"]
        kwargs["stratum_medians"] = tuple(
            _float_list(entry.value, "stratum_medians", path, entry.line))
    try:
        return ScenarioSpec(kind=kind, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path, kind_entry.line)


def _take(section, key, path, parse, default=None, required=False):
    entry = section.get(key)
    if entry is None:
        if required:
            raise ConfigError(f"missing required key {key!r}", path)
        return default
    return parse(entry.value, key, path, entry.line)


def _float_scalar(value, key, path, line):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", path, line)


def _positive_float(value, key, path, line):
    out = _float_scalar(value, key, path, line)
    if not out > 0:
        raise ConfigError(f"{key} must be positive, got {value}", path, line)
    return out


def _probability(value, key, path, line):
    out = _float_scalar(value, key, path, line)
    if not 0.0 < out < 1.0:
        raise ConfigError(f"{key} must be in (0, 1), got {value}", path, line)
    return out


def _event_fraction(value, key, path, line):
    out = _float_scalar(value, key, path, line)
    if not 0.0 < out <= 1.0:
        raise ConfigError(f"{key} must be in (0, 1], got {value}", path, line)
    return out


def _positive_int(value, key, path, line):
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", path, line)
    if out < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}", path, line)
    return out


def _nonneg_int(value, key, path, line):
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", path, line)
    if out < 0:
        raise ConfigError(f"{key} must be nonnegative, got {value}", path, line)
    return out


def _float_list(value, key, path, line):
    items = [s.strip() for s in value.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} must hold at least one number", path, line)
    return [_float_scalar(item, key, path, line) for item in items]


def _int_list(value, key, path, line):
    return [_positive_int(item.strip(), key, path, line)
            for item in value.split(",") if item.strip()]


def _allocation(value, key, path, line):
    text = value.strip().lower()
    if text == "balanced":
        return (1.0,) * STRATUM_COUNT
    parts = [p.strip() for p in value.split(":")]
    if len(parts) != STRATUM_COUNT:
        raise ConfigError(
            f"{key} must be 'balanced' or 12 colon-separated weights", path, line)
    weights = tuple(_float_scalar(p, key, path, line) for p in parts)
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigError(f"{key} weights must be nonnegative, not all zero", path, line)
    return weights


def _choice(options):
    def parse(value, key, path, line):
        out = value.strip().lower()
        if out not in options:
            raise ConfigError(f"{key} must be one of {options}, got {value!r}", path, line)
        return out
    return parse
