"""Dataset import/export and result emission.

Subject datasets travel as CSV with columns ``id, stratum, arm, time, event``
(or the factor triple ``x1, x2, x3`` in place of ``stratum``). Study results
are written as a presentation CSV (rounded, one row per study cell) plus a
JSON sidecar holding the full-precision metrics and a config echo that can
reproduce the run.
"""

from __future__ import annotations

import csv
import json
import warnings
from typing import Any

import numpy as np

from .datagen import TrialDataset
from .errors import DataFormatError
from .simulate import COX_KEYS, TEST_KEYS, StudyRow
from .trial import STRATUM_COUNT

_BASE_COLUMNS = ("id", "arm", "time", "event")
_INT64 = np.iinfo(np.int64)

#: Result CSV column order; power as percent with one decimal, estimation
#: metrics with three decimals.
RESULT_COLUMNS = (
    "true_hr", "events", "n",
    "bias_unstrat", "bias_mult", "bias_strat",
    "se_unstrat", "se_mult", "se_strat",
    "mse_unstrat", "mse_mult", "mse_strat",
    "power_lr", "power_strat_lr", "power_mult_cox", "power_strat_cox",
    "power_unstrat_cox",
    "replicates_excluded_unstrat", "replicates_excluded_mult",
    "replicates_excluded_strat",
    "status",
)


def read_subject_records(path: str) -> TrialDataset:
    """Load a subject-level dataset, validating every row.

    Requires a header; times must be strictly positive, arm and event must be
    0/1, and the stratum is given either as an index in [0, 12) or as the
    factor triple x1, x2, x3. The body is read with one ``np.loadtxt`` pass;
    a file that pass cannot read, or with any row that fails a check, goes
    to the row-by-row parser, which accepts exactly the same input as Python's
    ``int``/``float`` and words every error with its row number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        columns, triple = _read_header(csv.reader(fh))
        dtype = [(name, np.float64 if name == "time" else np.int64) for name in columns]
        try:
            # As an error, a warning (such as loadtxt's on a file with no data
            # rows) sends the file to the row parser instead of to stderr.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            table = None
    if table is None or not _rows_valid(table, triple):
        return _read_rows(path)
    strata = table["x1"] * 6 + table["x2"] * 2 + table["x3"] if triple else table["stratum"]
    return TrialDataset(
        subject_id=table["id"],
        stratum_index=strata,
        arm=table["arm"],
        enroll_time=np.zeros(table.size),
        observed_time=table["time"],
        event=table["event"] == 1,
    )


def _rows_valid(table: np.ndarray, triple: bool) -> bool:
    """The row parser's checks as masks: rows exist, levels in range, times > 0 and finite."""
    time = table["time"]
    tops = {"x1": 1, "x2": 2, "x3": 1} if triple else {"stratum": STRATUM_COUNT - 1}
    tops.update(arm=1, event=1)
    return (table.size > 0 and bool(np.all((time > 0) & np.isfinite(time)))
            and all(np.all((table[name] >= 0) & (table[name] <= top))
                    for name, top in tops.items()))


def _read_header(reader) -> tuple[list[str], bool]:
    """The header's column names, and whether the stratum is the factor triple."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("dataset file is empty (header row required)")
    columns = [c.strip().lower() for c in header]
    triple = "stratum" not in columns
    expected = set(_BASE_COLUMNS) | ({"x1", "x2", "x3"} if triple else {"stratum"})
    if set(columns) != expected:
        raise DataFormatError(
            f"header must contain exactly {sorted(expected)}, got {columns}", row=1)
    return columns, triple


def _read_rows(path: str) -> TrialDataset:
    """The reference parser: one row at a time, each cell through ``int``/``float``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns, triple = _read_header(reader)
        index = {name: columns.index(name) for name in columns}

        ids, strata, arms, times, events = [], [], [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(columns):
                raise DataFormatError(
                    f"expected {len(columns)} fields, got {len(row)}", row=rownum)
            subject = _int_cell(row[index["id"]], "id", rownum)
            if not _INT64.min <= subject <= _INT64.max:
                raise DataFormatError(
                    f"id must fit a signed 64-bit integer, got {subject}", row=rownum)
            ids.append(subject)
            arm = _int_cell(row[index["arm"]], "arm", rownum)
            if arm not in (0, 1):
                raise DataFormatError(f"arm must be 0 or 1, got {arm}", row=rownum)
            arms.append(arm)
            time = _float_cell(row[index["time"]], "time", rownum)
            if not time > 0:
                raise DataFormatError(f"time must be strictly positive, got {time}",
                                      row=rownum)
            times.append(time)
            event = _int_cell(row[index["event"]], "event", rownum)
            if event not in (0, 1):
                raise DataFormatError(f"event must be 0 or 1, got {event}", row=rownum)
            events.append(bool(event))
            if triple:
                x1 = _int_cell(row[index["x1"]], "x1", rownum)
                x2 = _int_cell(row[index["x2"]], "x2", rownum)
                x3 = _int_cell(row[index["x3"]], "x3", rownum)
                if x1 not in (0, 1) or x2 not in (0, 1, 2) or x3 not in (0, 1):
                    raise DataFormatError(
                        f"factor levels out of range: x1={x1} x2={x2} x3={x3}", row=rownum)
                strata.append(x1 * 6 + x2 * 2 + x3)
            else:
                stratum = _int_cell(row[index["stratum"]], "stratum", rownum)
                if not 0 <= stratum < 12:
                    raise DataFormatError(
                        f"stratum must be in [0, 12), got {stratum}", row=rownum)
                strata.append(stratum)

    if not ids:
        raise DataFormatError("dataset has a header but no data rows")
    return TrialDataset(
        subject_id=ids,
        stratum_index=strata,
        arm=arms,
        enroll_time=np.zeros(len(ids)),
        observed_time=times,
        event=events,
    )


def write_subject_records(path: str, dataset: TrialDataset) -> int:
    """Export a dataset in the import schema; returns the rows written.

    Subjects with zero follow-up are dropped: they belong to no risk set, so
    analyses of the exported file match the in-memory dataset exactly, and the
    schema requires strictly positive times.
    """
    keep = dataset.observed_time > 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "stratum", "arm", "time", "event"))
        for i in np.flatnonzero(keep):
            writer.writerow((
                int(dataset.subject_id[i]),
                int(dataset.stratum_index[i]),
                int(dataset.arm[i]),
                repr(float(dataset.observed_time[i])),
                int(dataset.event[i]),
            ))
    return int(keep.sum())


def _int_cell(text: str, name: str, rownum: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DataFormatError(f"{name} must be an integer, got {text!r}", row=rownum)


def _float_cell(text: str, name: str, rownum: int) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise DataFormatError(f"{name} must be a number, got {text!r}", row=rownum)
    if not np.isfinite(value):
        raise DataFormatError(f"{name} must be finite, got {text!r}", row=rownum)
    return value


def _fmt3(value: float | None) -> str:
    if value is None:
        return "nan"
    text = f"{value:.3f}"
    # A small negative value rounds to "-0.000"; print zero without a sign.
    return "0.000" if text == "-0.000" else text


def _fmt_pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


def write_results_csv(path: str, rows: list[StudyRow]) -> None:
    """Presentation CSV: one row per study cell, fixed column order, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            cfg = row.config
            record: list[str] = [
                f"{cfg.design.true_hr:g}",
                str(cfg.design.target_events),
                str(cfg.design.sample_size),
            ]
            if row.metrics is None:
                record += ["nan"] * 17
                record.append(f"failed: {row.error}")
            else:
                m = row.metrics.methods
                for metric in ("avg_bias", "avg_se", "mse"):
                    for key in COX_KEYS:
                        record.append(_fmt3(getattr(m[key], metric)))
                for key in TEST_KEYS:
                    record.append(_fmt_pct(row.metrics.power[key]))
                for key in COX_KEYS:
                    record.append(str(m[key].replicates_excluded))
                record.append("ok")
            writer.writerow(record)


def results_to_records(rows: list[StudyRow]) -> list[dict[str, Any]]:
    """Full-precision row records for the JSON sidecar (and --json output)."""
    records = []
    for row in rows:
        cfg = row.config
        record: dict[str, Any] = {
            "true_hr": cfg.design.true_hr,
            "events": cfg.design.target_events,
            "n": cfg.design.sample_size,
            "master_seed": cfg.master_seed,
        }
        if row.metrics is None:
            record["error"] = row.error
        else:
            record["methods"] = {
                key: {
                    "avg_bias": mm.avg_bias,
                    "avg_se": mm.avg_se,
                    "mse": mm.mse,
                    "replicates_used": mm.replicates_used,
                    "replicates_excluded": mm.replicates_excluded,
                }
                for key, mm in row.metrics.methods.items()
            }
            record["power"] = dict(row.metrics.power)
            record["degenerate_tests"] = dict(row.metrics.degenerate_counts)
            record["replicates"] = row.metrics.replicates
        records.append(record)
    return records


def write_sidecar_json(path: str, config_mapping: dict[str, Any],
                       rows: list[StudyRow]) -> None:
    """Provenance sidecar: config echo (its ``workers`` repeated at the top
    level), seed, and full-precision metrics."""
    payload = {
        "tool": "stratsurv",
        "config": config_mapping,
        "workers": config_mapping["run"]["workers"],
        "rows": results_to_records(rows),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
