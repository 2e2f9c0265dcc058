"""Study configuration: one schema for config files and their JSON echo.

Three sections describe a study: ``[scenario]`` (the data-generating
mechanism), ``[design]`` (hazard-ratio grid, event targets, accrual,
allocation), and ``[run]`` (replicates, seed, tie handling, SE scale,
workers). The table ``_SCHEMA`` gives each section's keys in echo order,
with the field each key sets and the parser of its value, which reads the
text of a file or the JSON value of a ``to_mapping`` echo (a sidecar).
Files and echoes share one builder: unknown sections or keys, missing
required keys and out-of-range values are rejected, a file's errors naming
the offending line. Defaults live only on the ``StudyConfig`` fields.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

from .design import DesignInputs, sample_size, schoenfeld_events
from .errors import ConfigError, InvalidParameterError
from .inference import TIE_METHODS
from .simulate import MAX_REPLICATES, SE_SCALES, SimConfig
from .trial import (BALANCED_WEIGHTS, MAX_SAMPLE_SIZE, STRATUM_COUNT, ScenarioKind,
                    ScenarioSpec, TrialDesign)


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved study description: one row per true hazard ratio."""

    scenario: ScenarioSpec
    true_hrs: tuple[float, ...]
    events: tuple[int, ...]
    accrual_months: float = 14.0
    allocation_weights: tuple[float, ...] = BALANCED_WEIGHTS
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
        if self.seed < 0:
            raise InvalidParameterError("seed must be nonnegative")
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError("workers must be at least 1")
        for hr, d in zip(self.true_hrs, self.events):
            n = sample_size(d, self.event_fraction)
            if n > MAX_SAMPLE_SIZE:
                raise InvalidParameterError(
                    f"true_hr={hr}: sample_size {n} exceeds the maximum of {MAX_SAMPLE_SIZE}")

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
            )
            configs.append(SimConfig(
                scenario=self.scenario,
                design=design,
                replicates=self.replicates,
                master_seed=self.seed + i,
                tie_method=self.tie_method,
                se_scale=self.se_scale,
            ))
        return configs

    def with_overrides(self, seed: int | None = None, workers: int | None = None,
                       replicates: int | None = None) -> "StudyConfig":
        """A copy with every override that is not ``None`` applied."""
        overrides = {"seed": seed, "workers": workers, "replicates": replicates}
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    def to_mapping(self) -> dict[str, Any]:
        """JSON-ready echo of the full resolved configuration. The scenario
        echo leaves out fields its kind does not use; unset ``workers`` is null."""
        echo: dict[str, Any] = {}
        for section, keys in _SCHEMA.items():
            owner = self.scenario if section == "scenario" else self
            values = ((key.name, _json_value(getattr(owner, key.field))) for key in keys)
            echo[section] = {name: value for name, value in values
                             if value is not None or owner is self}
        return echo

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "StudyConfig":
        """Rebuild a StudyConfig from a ``to_mapping`` echo (e.g. a sidecar),
        checked like a config file; its errors carry no line."""
        if not isinstance(mapping, dict):
            raise ConfigError(f"the config echo must be a JSON object, got {mapping!r}")
        entries = {}
        for section, keys in mapping.items():
            if not isinstance(keys, dict):
                raise ConfigError(f"[{section}] must be a JSON object, got {keys!r}")
            entries[section] = {key: (value, None) for key, value in keys.items()}
        return _build(entries, None)


def load_study_config(path: str) -> StudyConfig:
    """Parse and validate a study configuration file. A file that cannot be
    read, or is not UTF-8 text, is a ``ConfigError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc.strerror or exc}", path) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc.reason}", path) from None
    return parse_study_config(text, path)


def parse_study_config(text: str, path: str = "<config>") -> StudyConfig:
    """Like :func:`load_study_config` but from an in-memory string."""
    return _build(_parse_entries(text, path), path)


def _parse_entries(text: str, path: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split a config file into ``{section: {key: (value text, line)}}``."""
    entries: dict[str, dict[str, tuple[str, int]]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", path, lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", path, lineno)
        entries[section][key] = (value, lineno)
    return entries


def _build(entries: dict[str, dict[str, tuple[Any, int | None]]],
           path: str | None) -> StudyConfig:
    """Check entries against ``_SCHEMA``, parse their values, build the study."""
    for section in sorted(entries.keys() - _SCHEMA.keys()):
        raise ConfigError(f"unknown section [{section}]", path)
    fields: dict[str, dict[str, Any]] = {section: {} for section in _SCHEMA}
    lines: dict[str, int | None] = {}
    for section, keys in _SCHEMA.items():
        known = {key.name: key for key in keys}
        for name, (value, line) in entries.get(section, {}).items():
            key = known.get(name)
            if key is None:
                raise ConfigError(f"unknown key {name!r} in [{section}]", path, line)
            fields[section][key.field] = key.parse(value, name, path, line)
            lines[key.field] = line
        for key in keys:
            if key.required and key.field not in fields[section]:
                what = (f"key {key.name!r} in [{section}]" if section in entries
                        else f"[{section}] section")
                raise ConfigError(f"missing {what}", path)

    try:
        scenario = ScenarioSpec(**fields.pop("scenario"))
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path, lines["kind"])
    study = {field: value for section in fields.values() for field, value in section.items()}
    if study.get("events") is None:
        study["events"] = _derive_events(study, path, lines.get("events"))
    try:
        return StudyConfig(scenario=scenario, **study)
    except InvalidParameterError as exc:
        # The parsers have checked each value on its own, so what is left is
        # an events list that does not match the true_hr list, or a row whose
        # sample size is too large.
        raise ConfigError(str(exc), path, lines.get("events"))


def _derive_events(study: dict[str, Any], path: str | None,
                   line: int | None) -> tuple[int, ...]:
    """Schoenfeld targets for ``events = auto``; unset inputs take StudyConfig's defaults."""
    def setting(field: str) -> Any:
        return study.get(field, getattr(StudyConfig, field))  # the field's default

    events = []
    for hr in study["true_hrs"]:
        try:
            inputs = DesignInputs(hr=hr, alpha_one_sided=setting("alpha_one_sided"),
                                  power=setting("power"), allocation=setting("randomization_prob"),
                                  event_fraction=setting("event_fraction"))
            events.append(schoenfeld_events(inputs))
        except InvalidParameterError as exc:
            raise ConfigError(f"cannot derive events for true_hr={hr}: {exc}", path, line)
    return tuple(events)


def _json_value(value: Any) -> Any:
    if isinstance(value, ScenarioKind):
        return value.value
    return list(value) if isinstance(value, tuple) else value


# Value parsers: each takes (value, key, path, line); line is None for an echo.

def _float_scalar(value, key, path, line):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}", path, line)
    except OverflowError:  # a JSON integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value}", path, line)
    return out


def _int_scalar(value, key, path, line):
    # operator.index rejects a JSON float such as 66.5 instead of truncating it.
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}", path, line)


def _bounded(scalar, accept, bounds):
    """A parser of one number that ``accept`` allows; ``bounds`` words the range."""
    def parse(value, key, path, line):
        out = scalar(value, key, path, line)
        if not accept(out):
            raise ConfigError(f"{key} must be {bounds}, got {value}", path, line)
        return out
    return parse


_positive_float = _bounded(_float_scalar, lambda x: x > 0, "positive")
_probability = _bounded(_float_scalar, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_unit_interval = _bounded(_float_scalar, lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_positive_int = _bounded(_int_scalar, lambda n: n >= 1, "at least 1")
_nonneg_int = _bounded(_int_scalar, lambda n: n >= 0, "nonnegative")
_replicates = _bounded(_positive_int, lambda n: n <= MAX_REPLICATES, f"at most {MAX_REPLICATES}")


def _workers(value, key, path, line):
    return None if value is None else _positive_int(value, key, path, line)


def _items(value, sep, key, path, line):
    """The items of a list-valued key: ``sep``-separated text or a JSON list."""
    if isinstance(value, str):
        return [item.strip() for item in value.split(sep)]
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{key} must be a list, got {value!r}", path, line)


def _number_list(value, key, path, line, parse_item=_float_scalar):
    items = [item for item in _items(value, ",", key, path, line) if item != ""]
    if not items:
        raise ConfigError(f"{key} must hold at least one number", path, line)
    return tuple(parse_item(item, key, path, line) for item in items)


def _hazard_ratios(value, key, path, line):
    return _number_list(value, key, path, line, _unit_interval)


def _events(value, key, path, line):
    if isinstance(value, str) and value.strip().lower() == "auto":
        return None  # _build derives the targets from the design inputs
    return _number_list(value, key, path, line, _positive_int)


def _stratum_medians(value, key, path, line):
    medians = _number_list(value, key, path, line, _positive_float)
    if len(medians) != STRATUM_COUNT:
        raise ConfigError(f"{key} must hold exactly {STRATUM_COUNT} values", path, line)
    return medians


def _allocation(value, key, path, line):
    if isinstance(value, str) and value.strip().lower() == "balanced":
        return BALANCED_WEIGHTS
    parts = _items(value, ":", key, path, line)
    if len(parts) != STRATUM_COUNT:
        raise ConfigError(f"{key} must be 'balanced' or 12 colon-separated weights", path, line)
    weights = tuple(_float_scalar(p, key, path, line) for p in parts)
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigError(f"{key} weights must be nonnegative, not all zero", path, line)
    return weights


def _choice(options, make=str):
    """A parser of one of ``options`` (case-insensitive), turned into ``make``."""
    def parse(value, key, path, line):
        out = str(value).strip().lower()
        if out not in options:
            raise ConfigError(f"{key} must be one of {options}, got {value!r}", path, line)
        return make(out)
    return parse


class _Key(NamedTuple):
    """One config key: its name, the parser of its value, the field it sets."""

    name: str
    parse: Callable[[Any, str, str | None, int | None], Any]
    field_name: str = ""  # empty when the field has the key's name
    required: bool = False

    @property
    def field(self) -> str:
        return self.field_name or self.name


#: Every section and key in echo order. ``[scenario]`` keys set ScenarioSpec
#: fields, the others set StudyConfig fields; a section holding a required
#: key is itself required.
_SCHEMA: dict[str, tuple[_Key, ...]] = {
    "scenario": (
        _Key("kind", _choice(tuple(k.value for k in ScenarioKind), ScenarioKind), required=True),
        _Key("base_median", _positive_float),
        _Key("hr_x1", _positive_float),
        _Key("hr_x2_level1", _positive_float),
        _Key("hr_x2_level2", _positive_float),
        _Key("hr_x3", _positive_float),
        _Key("stratum_medians", _stratum_medians),
    ),
    "design": (
        _Key("true_hr", _hazard_ratios, "true_hrs", required=True),
        _Key("events", _events),
        _Key("accrual_months", _positive_float),
        _Key("allocation", _allocation, "allocation_weights"),
        _Key("randomization_prob", _probability),
        _Key("alpha_one_sided", _probability),
        _Key("power", _probability),
        _Key("event_fraction", _unit_interval),
    ),
    "run": (
        _Key("replicates", _replicates),
        _Key("seed", _nonneg_int),
        _Key("tie_method", _choice(TIE_METHODS)),
        _Key("se_scale", _choice(SE_SCALES)),
        _Key("workers", _workers),
    ),
}
