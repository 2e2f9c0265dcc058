"""Dataset import/export and result emission.

Subject datasets travel as CSV with columns ``id, stratum, arm, time, event``
(or the factor triple ``x1, x2, x3`` in place of ``stratum``). Study results
are written as a presentation CSV (rounded, one row per study cell) plus a
JSON sidecar holding the full-precision metrics and a config echo that can
reproduce the run.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import warnings
from contextlib import contextmanager
from functools import reduce
from itertools import islice
from operator import getitem, itemgetter
from typing import Any

import numpy as np

from .datagen import TrialDataset
from .errors import DataFormatError, InvalidParameterError
from .simulate import COX_KEYS, TEST_KEYS, StudyRow
from .trial import FACTOR_LEVELS, STRATUM_COUNT, stratum_index

_BASE_COLUMNS = ("id", "arm", "time", "event")
#: The columns of the factor triple, in FACTOR_LEVELS order.
_FACTORS = ("x1", "x2", "x3")
_INT64 = np.iinfo(np.int64)
#: Suffixes by which ``np.loadtxt`` decompresses a path (numpy's DataSource).
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _fmt3(value: float | None) -> str:
    if value is None:
        return "nan"
    text = f"{value:.3f}"
    # A small negative value rounds to "-0.000"; print zero without a sign.
    return "0.000" if text == "-0.000" else text


def _fmt_pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


#: Each Cox method's short name in the result columns.
_COX_COLUMNS = {"unstrat_cox": "unstrat", "mult_cox": "mult", "strat_cox": "strat"}
#: The result CSV's columns between its three design cells and its status:
#: each column's name, the path of its value in a ``results_to_records``
#: record, and its format (power as percent with one decimal, estimation
#: metrics with three decimals).
_RESULT_TABLE = (
    *((f"{prefix}_{_COX_COLUMNS[key]}", ("methods", key, metric), _fmt3)
      for prefix, metric in (("bias", "avg_bias"), ("se", "avg_se"), ("mse", "mse"))
      for key in COX_KEYS),
    *((f"power_{key}", ("power", key), _fmt_pct) for key in TEST_KEYS),
    *((f"replicates_excluded_{_COX_COLUMNS[key]}", ("methods", key, "replicates_excluded"), str)
      for key in COX_KEYS),
)
RESULT_COLUMNS = ("true_hr", "events", "n", *(name for name, _, _ in _RESULT_TABLE), "status")


def read_subject_records(path: str) -> TrialDataset:
    """Load a subject-level dataset, validating every row.

    Requires a header that names each column once; times must be strictly
    positive, arm and event must be 0/1, and the stratum is given either as
    an index in [0, 12) or as the factor triple x1, x2, x3. A clean regular
    file is read in one vectorized pass: ``_dataset`` reads the header, and
    one ``np.loadtxt`` pass on the path, which numpy reads in C chunks, reads
    the body, skipping the header's lines (more than one where a quoted
    header cell holds a newline). ``TrialDataset`` checks the stratum, arm
    and event of the table that pass reads; ``_checked_table`` adds the
    checks it does not make.

    Every other file goes to the row-by-row parser, ``_read_rows``, which
    words every error with its row number: a file that is not regular or
    whose name numpy would decompress by its suffix (a pipe, a FIFO, a
    missing path), and a file the pass cannot read (a cell it cannot parse,
    such as ``abc``, a quoted cell or an id past 64 bits; a record of
    whitespace; no data rows). A file the pass read but that fails a check is
    parsed from its first failing row, which per-row masks locate. The row
    parser accepts exactly the same input as Python's ``int``/``float``
    (``tests/test_import_paths.py`` holds the routes equal).
    """
    if not os.path.isfile(path) or os.fspath(path).endswith(_COMPRESSED_SUFFIXES):
        return _read_rows(path)
    with _dataset(path) as (reader, index, triple):
        header_lines = reader.line_num
    dtype = [(name, np.float64 if name == "time" else np.int64) for name in index]
    try:
        # As an error, a warning (such as loadtxt's on a file with no data
        # rows) sends the file to the row parser instead of to stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # An absolute path, so that numpy never reads it as a URL.
            table = np.loadtxt(os.path.abspath(path), dtype=dtype, delimiter=",",
                               comments=None, skiprows=header_lines, ndmin=1,
                               encoding="utf-8")
    except (ValueError, Warning):
        return _read_rows(path)
    dataset = _checked_table(table, triple)
    if dataset is not None:
        return dataset
    # per-row masks of the checks locate the first failing row
    time = table["time"]
    failing = ~((time > 0) & np.isfinite(time))
    levels = zip(_FACTORS, FACTOR_LEVELS) if triple else [("stratum", STRATUM_COUNT)]
    for name, count in [*levels, ("arm", 2), ("event", 2)]:
        failing |= (table[name] < 0) | (table[name] >= count)
    return _read_rows(path, int(np.argmax(failing)) if failing.any() else None)


@contextmanager
def _dataset(path: str):
    """The one reader of a dataset file: opens it as UTF-8, builds the ``csv``
    reader and reads and checks the header, which must name each column once
    (after stripping and lower-casing). Yields the reader, placed after the
    header, each column's position by name, and whether the stratum is the
    factor triple. A file that cannot be opened or read, that is not UTF-8,
    or that holds a record ``csv`` cannot read (a cell longer than 131,072
    characters) raises a ``DataFormatError`` naming it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError("dataset file is empty (header row required)")
            columns = [c.strip().lower() for c in header]
            triple = "stratum" not in columns
            expected = sorted(_BASE_COLUMNS + (_FACTORS if triple else ("stratum",)))
            if sorted(columns) != expected:
                raise DataFormatError(
                    f"header must contain exactly {expected}, got {columns}", row=1)
            yield reader, {name: i for i, name in enumerate(columns)}, triple
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {os.fspath(path)}: "
                              f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"dataset {os.fspath(path)} is not UTF-8 text: "
                              f"{exc.reason}") from None
    except csv.Error as exc:
        raise DataFormatError(f"cannot read dataset {os.fspath(path)} at line "
                              f"{reader.line_num}: {exc}") from None


def _checked_table(table: np.ndarray, triple: bool) -> TrialDataset | None:
    """The dataset of a loadtxt table, or None if it fails a check.

    ``TrialDataset`` checks that the stratum is in [0, 12) and that arm and
    event are 0/1, on the raw columns. This checks the rest: that rows exist,
    the factor levels, before ``stratum_index`` could map an out-of-range
    triple onto a valid index, and the times, strictly positive and finite,
    on the dataset's contiguous ``observed_time``.
    """
    if not table.size or triple and not all(
            table[name].min() >= 0 and table[name].max() < count
            for name, count in zip(_FACTORS, FACTOR_LEVELS)):
        return None
    strata = stratum_index(*(table[name] for name in _FACTORS)) if triple else table["stratum"]
    try:
        dataset = TrialDataset(
            subject_id=table["id"],
            stratum_index=strata,
            arm=table["arm"],
            enroll_time=np.zeros(table.size),
            observed_time=table["time"],
            event=table["event"],
        )
    except InvalidParameterError:
        return None
    time = dataset.observed_time
    # a NaN fails the first comparison
    return dataset if time.min() > 0 and time.max() < np.inf else None


def _read_rows(path: str, start: int | None = None) -> TrialDataset:
    """The row-by-row parser, the reference: each non-blank record through
    ``_parse_row``, whose ``int``/``float`` reading and checks word every
    error with the record's row number. Records count from the header, and a
    record that is empty or holds only whitespace and commas is skipped. It
    reads records with ``csv``, so it refuses a cell longer than 131,072
    characters (``_dataset`` names the file and the line).

    ``start`` is the index of the first failing data row of a file that the
    loadtxt pass read. The records before it are counted without being
    parsed, and only that row's record is parsed. Such a file holds no blank
    record but empty ones, since a record of whitespace or of empty cells
    fails that pass, so skipping empty records counts exactly. Should the
    located record pass after all, the whole file is parsed.
    """
    with _dataset(path) as (reader, index, triple):
        records = enumerate(reader, start=2)
        if start is not None:
            records = islice(filter(itemgetter(1), records), start, start + 1)
        rows = [_parse_row(row, index, triple, rownum)
                for rownum, row in records if any(map(str.strip, row))]
    if start is not None:  # the located record passed
        return _read_rows(path)
    if not rows:
        raise DataFormatError("dataset has a header but no data rows")
    ids, strata, arms, times, events = zip(*rows)
    return TrialDataset(
        subject_id=ids,
        stratum_index=strata,
        arm=arms,
        enroll_time=np.zeros(len(ids)),
        observed_time=times,
        event=events,
    )


def _parse_row(row: list[str], index: dict[str, int], triple: bool,
               rownum: int) -> tuple[int, int, int, float, bool]:
    """One non-blank record's (id, stratum, arm, time, event), each cell read
    through ``int``/``float`` and checked; a failing cell raises the
    ``DataFormatError`` that names it and ``rownum``."""
    if len(row) != len(index):
        raise DataFormatError(f"expected {len(index)} fields, got {len(row)}", row=rownum)
    subject = _int_cell(row[index["id"]], "id", rownum)
    if not _INT64.min <= subject <= _INT64.max:
        raise DataFormatError(
            f"id must fit a signed 64-bit integer, got {subject}", row=rownum)
    arm = _int_cell(row[index["arm"]], "arm", rownum)
    if arm not in (0, 1):
        raise DataFormatError(f"arm must be 0 or 1, got {arm}", row=rownum)
    time = _float_cell(row[index["time"]], "time", rownum)
    if not time > 0:
        raise DataFormatError(f"time must be strictly positive, got {time}", row=rownum)
    event = _int_cell(row[index["event"]], "event", rownum)
    if event not in (0, 1):
        raise DataFormatError(f"event must be 0 or 1, got {event}", row=rownum)
    if triple:
        levels = [_int_cell(row[index[name]], name, rownum) for name in _FACTORS]
        if not all(0 <= x < count for x, count in zip(levels, FACTOR_LEVELS)):
            x1, x2, x3 = levels
            raise DataFormatError(
                f"factor levels out of range: x1={x1} x2={x2} x3={x3}", row=rownum)
        stratum = stratum_index(*levels)
    else:
        stratum = _int_cell(row[index["stratum"]], "stratum", rownum)
        if not 0 <= stratum < STRATUM_COUNT:
            raise DataFormatError(
                f"stratum must be in [0, {STRATUM_COUNT}), got {stratum}", row=rownum)
    return subject, stratum, arm, time, bool(event)


def write_subject_records(path: str, dataset: TrialDataset) -> int:
    """Export a dataset in the import schema; returns the rows written.

    Subjects with zero follow-up are dropped: they belong to no risk set, so
    analyses of the exported file match the in-memory dataset exactly, and the
    schema requires strictly positive times.
    """
    keep = dataset.observed_time > 0
    ids, strata, arms = (a[keep].tolist() for a in (
        dataset.subject_id, dataset.stratum_index, dataset.arm))
    times = map(repr, dataset.observed_time[keep].tolist())
    events = dataset.event[keep].astype(np.int8).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "stratum", "arm", "time", "event"))
        writer.writerows(zip(ids, strata, arms, times, events))
    return len(ids)


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


def write_results_csv(path: str, rows: list[StudyRow]) -> None:
    """Presentation CSV: one row per study cell, fixed column order, LF endings.
    Each row is its ``results_to_records`` record formatted through
    ``_RESULT_TABLE``, every metric ``nan`` for a failed row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for record in results_to_records(rows):
            cells = [f"{record['true_hr']:g}", str(record["events"]), str(record["n"])]
            if "error" in record:
                cells += ["nan"] * len(_RESULT_TABLE) + [f"failed: {record['error']}"]
            else:
                cells += [fmt(reduce(getitem, path, record)) for _, path, fmt in _RESULT_TABLE]
                cells.append("ok")
            writer.writerow(cells)


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
            record["methods"] = {key: dataclasses.asdict(mm)
                                 for key, mm in row.metrics.methods.items()}
            record["power"] = dict(row.metrics.power)
            record["degenerate_tests"] = dict(row.metrics.degenerate_counts)
            record["replicates"] = row.metrics.replicates
            record["power_mcse"] = dict(row.metrics.power_mcse)
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
