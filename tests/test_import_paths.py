"""Differential tests of the two dataset import paths.

``read_subject_records`` reads a clean regular file in one vectorized pass,
``np.loadtxt`` on its body. Every other file goes to the row-by-row parser
``io._read_rows``, the reference, and so every failing file is reported by
it. A file that the pass read but that fails a check is parsed from its
first failing row, so that row's record alone goes through the per-row
checks. Files built by mutating valid rows must give bitwise-equal arrays
through both routes, or the same ``DataFormatError`` (message and row).
Both readers refuse a header that names a column twice, and a record that
``csv`` cannot read, such as one with a cell longer than 131,072 characters.
"""

import functools
import os
import threading
from decimal import Decimal

import numpy as np
import pytest

from stratsurv import io
from stratsurv.errors import DataFormatError
from stratsurv.io import read_subject_records

FIELDS = ("subject_id", "stratum_index", "arm", "enroll_time", "observed_time", "event")
STRATUM_HEADER = ("id", "stratum", "arm", "time", "event")
TRIPLE_HEADER = ("id", "x1", "x2", "x3", "arm", "time", "event")

# Cell spellings that Python's int()/float() and loadtxt may read differently.
ODD_INT_CELLS = ("1_0", "1.0", "+1", " 1 ", "１", "-0", "007", str(2**63), str(-2**63),
                 str(-2**63 - 1), "", " ", "0x1", "\t0\t", "- 1", "1 2", "1e0", "nan")
ODD_TIME_CELLS = ("nan", "inf", "-inf", "1e400", "-0", "1e-400", "1_0.5", "0x1p3", "１",
                  "+2.5", " 2.5 ", "2.5e", "", "infinity", ".5", "5.")
# Values one past each end of the columns' ranges.
OUT_OF_RANGE = {"stratum": ("-1", "12"), "x1": ("-1", "2"), "x2": ("-1", "3"),
                "x3": ("-1", "2"), "arm": ("-1", "2"), "event": ("-1", "2"),
                "time": ("0", "-0.0", "-1.5", "-inf", "4e-324")}


def _time_text(rng: np.random.Generator) -> str:
    """A positive time in one of several spellings, some pinning float rounding."""
    x = float(rng.exponential(20.0)) + 1e-3
    kind = rng.integers(6)
    if kind == 0:
        return repr(x)  # 17 significant digits at most, round-trips exactly
    if kind == 1:
        return f"{x:.40f}"  # long decimal
    if kind == 2:
        return f"{x:.{int(rng.integers(1, 8))}e}"
    if kind == 3:
        # Exactly halfway between two doubles: rounds to the even one.
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        return str(mid)
    if kind == 4:
        return str(int(rng.integers(1, 240)))  # whole months
    return "0." + "".join(str(d) for d in rng.integers(0, 10, 30)) + "1"


def _row(rng: np.random.Generator, columns: tuple[str, ...]) -> dict[str, str]:
    high = (2**63 - 1) if rng.random() < 0.1 else 10**6
    cells = {"id": str(int(rng.integers(-high, high))),
             "stratum": str(int(rng.integers(12))),
             "x1": str(int(rng.integers(2))), "x2": str(int(rng.integers(3))),
             "x3": str(int(rng.integers(2))),
             "arm": str(int(rng.integers(2))), "event": str(int(rng.integers(2))),
             "time": _time_text(rng)}
    return {name: cells[name] for name in columns}


def _mutate(rng: np.random.Generator, lines: list[str], columns: tuple[str, ...]) -> None:
    """Apply one mutation to the body lines (header excluded), in place."""
    at = int(rng.integers(len(lines) + 1))
    kind = rng.integers(14)
    if kind == 0:
        lines.insert(at, "")
    elif kind == 1:
        lines.insert(at, str(rng.choice([" ", "\t", "  \t "])))
    elif kind == 2:
        lines.insert(at, "," * (len(columns) - 1))
    elif kind == 3:
        lines.insert(at, "# a comment")
    elif kind == 4 and lines:
        cells = lines[min(at, len(lines) - 1)].split(",")
        cells.append("1") if rng.random() < 0.5 else cells.pop()
        lines[min(at, len(lines) - 1)] = ",".join(cells)
    elif kind == 5 and lines:
        lines[min(at, len(lines) - 1)] = ",".join(
            f'"{c}"' for c in lines[min(at, len(lines) - 1)].split(","))
    elif kind == 6:
        lines.clear()  # header-only file
    elif lines:
        # Replace one cell: an odd spelling, or a value just out of range.
        row = min(at, len(lines) - 1)
        cells = lines[row].split(",")
        col = int(rng.integers(len(cells)))
        if rng.random() < 0.4 and columns[col] in OUT_OF_RANGE:
            cells[col] = str(rng.choice(OUT_OF_RANGE[columns[col]]))
        else:
            cells[col] = str(rng.choice(ODD_TIME_CELLS if columns[col] == "time"
                                        else ODD_INT_CELLS))
        lines[row] = ",".join(cells)


def _dataset_file(rng: np.random.Generator, mutations: int) -> str:
    """CSV text of 1-12 valid rows under either header form, then mutated."""
    columns = STRATUM_HEADER if rng.random() < 0.5 else TRIPLE_HEADER
    columns = tuple(columns[i] for i in rng.permutation(len(columns)))
    lines = [",".join(_row(rng, columns).values()) for _ in range(int(rng.integers(1, 13)))]
    for _ in range(mutations):
        _mutate(rng, lines, columns)
    header = ",".join(name.upper() if rng.random() < 0.2 else name for name in columns)
    ending = str(rng.choice(["\n", "\r\n", "\r"])) if mutations else "\n"
    text = ending.join([header] + lines)
    return text + ending if rng.random() < 0.8 else text


def _outcome(read, path):
    """The arrays read from ``path``, or the error's type, message and row."""
    try:
        ds = read(path)
    except DataFormatError as exc:
        return ("error", str(exc), exc.row)
    return tuple((getattr(ds, f).dtype.str, getattr(ds, f).tobytes()) for f in FIELDS)


@pytest.mark.parametrize("seed", range(8))
def test_both_paths_agree_on_mutated_files(tmp_path, monkeypatch, recwarn, seed):
    rng = np.random.default_rng(seed)
    reference = io._read_rows
    fallbacks = []
    monkeypatch.setattr(io, "_read_rows", lambda path, start=None:
                        fallbacks.append((path, start)) or reference(path, start))
    files = 150
    for i in range(files):
        path = tmp_path / f"data{i}.csv"
        path.write_bytes(_dataset_file(rng, int(rng.integers(4))).encode("utf-8"))
        assert _outcome(read_subject_records, path) == _outcome(reference, path), \
            path.read_bytes()
    # Both paths ran, the row parser from a located row too, and no warning
    # of the loadtxt pass escaped.
    assert 0 < len({path for path, _ in fallbacks}) < files
    assert any(start is not None for _, start in fallbacks)
    assert not recwarn.list


@pytest.mark.parametrize("seed", range(4))
def test_clean_files_take_one_loadtxt_pass(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    path = tmp_path / "clean.csv"
    path.write_text(_dataset_file(rng, mutations=0), encoding="utf-8")
    expected = _outcome(io._read_rows, path)

    def refuse(path, start=None):
        raise AssertionError("a clean file fell back to the row parser")

    monkeypatch.setattr(io, "_read_rows", refuse)
    assert _outcome(read_subject_records, path) == expected


@pytest.mark.parametrize("cell,accepted", [
    ("1_0", True), ("１", True), (" 7 ", True), ('"4"', True),
    ("1.0", False), ("", False),
])
def test_cells_python_reads_and_loadtxt_does_not(tmp_path, cell, accepted):
    # The row parser's grammar is Python int() after stripping whitespace,
    # so these spellings are read (or rejected) exactly as before.
    path = tmp_path / "odd.csv"
    path.write_text(f"id,stratum,arm,time,event\n{cell},0,1,2.5,1\n", encoding="utf-8")
    if accepted:
        assert read_subject_records(path).subject_id[0] == int(cell.strip().strip('"'))
    else:
        with pytest.raises(DataFormatError) as err:
            read_subject_records(path)
        assert err.value.row == 2


def _refuse_row_parser(monkeypatch):
    """Fail the test if ``_read_rows`` parses a whole file; a parse from a
    located row runs."""
    reference = io._read_rows

    def refuse(path, start=None):
        if start is None:
            raise AssertionError("the file was parsed whole by the row parser")
        return reference(path, start)

    monkeypatch.setattr(io, "_read_rows", refuse)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_header_with_quoted_newline_keeps_body_aligned(tmp_path, monkeypatch, ending):
    # The header spans two lines; the loadtxt pass skips both and reads every row.
    path = tmp_path / "quoted.csv"
    lines = ['"id\n",stratum,arm,time,event', "1,0,1,2.5,1", "2,11,0,1.5,0", "3,4,1,7.25,1"]
    path.write_bytes(ending.join(lines).replace("\n", ending).encode("utf-8") + b"\n")
    expected = _outcome(io._read_rows, path)
    assert expected[0][1] == np.array([1, 2, 3]).tobytes()
    _refuse_row_parser(monkeypatch)
    assert _outcome(read_subject_records, path) == expected


def test_compressed_suffixes_cover_numpys():
    # numpy decompresses a path by these suffixes; a new one would need adding.
    assert set(np.lib._datasource._file_openers.keys()) - {None} <= set(io._COMPRESSED_SUFFIXES)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_file_with_compression_suffix_reads_as_text(tmp_path, suffix):
    rng = np.random.default_rng(7)
    path = tmp_path / f"data.csv{suffix}"
    path.write_text(_dataset_file(rng, mutations=0), encoding="utf-8")
    got = _outcome(read_subject_records, path)
    assert got[0] != "error"
    assert got == _outcome(io._read_rows, path)


@pytest.mark.parametrize("offset", [30, 20_000], ids=["header_chunk", "body"])
def test_non_utf8_byte_is_a_format_error(tmp_path, offset):
    # A bad byte in the first block fails the header read; one further on
    # fails the loadtxt pass, and the row parser then names the file.
    rows = "".join(f"{i},{i % 12},{i % 2},{1 + i % 30}.5,{i % 2}\n" for i in range(2000))
    text = ("id,stratum,arm,time,event\n" + rows).encode("utf-8")
    path = tmp_path / "latin1.csv"
    path.write_bytes(text[:offset] + b"\xe9" + text[offset:])
    got = _outcome(read_subject_records, path)
    assert got == _outcome(io._read_rows, path)
    assert got[0] == "error" and str(path) in got[1] and "not UTF-8" in got[1]


def _feed_fifo(path, data: bytes, done: threading.Event) -> None:
    """Write ``data`` to the FIFO at ``path`` for one reader."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader closed before the end
        pass
    # A reader that opened the FIFO a second time would wait for a writer
    # forever; open and close one so that it sees end of file instead.
    while not done.wait(0.05):
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass


def _read_fifo(tmp_path, data: bytes):
    """The outcome of ``read_subject_records`` on a FIFO fed ``data``."""
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    done = threading.Event()
    writer = threading.Thread(target=_feed_fifo, args=(fifo, data, done))
    writer.start()
    try:
        return _outcome(read_subject_records, fifo)
    finally:
        done.set()
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("rows", [3, 2000], ids=["one_chunk", "beyond_8kb"])
def test_fifo_reads_like_a_regular_file(tmp_path, rows):
    # A pipe can be read once: every row must come through, as from a file.
    text = "id,stratum,arm,time,event\n" + "".join(
        f"{i},{i % 12},{i % 2},{1 + i % 30}.5,{i % 2}\n" for i in range(rows))
    data = text.encode("utf-8")
    regular = tmp_path / "data.csv"
    regular.write_bytes(data)
    expected = _outcome(io._read_rows, regular)
    assert expected[0][1] == np.arange(rows).tobytes()
    assert _read_fifo(tmp_path, data) == expected


LARGE_ROWS = 20_000
# One failing cell of each check kind, by column.
FAILING_CELLS = [("stratum", "12"), ("stratum", "-1"), ("x1", "2"), ("x2", "3"),
                 ("x2", "-1"), ("x3", "2"), ("arm", "2"), ("arm", "-1"), ("event", "2"),
                 ("time", "0"), ("time", "-1.5"), ("time", "nan"), ("time", "-inf"),
                 ("time", "1e400")]
WHERE = {"first": 0, "middle": LARGE_ROWS // 2, "last": LARGE_ROWS - 1}


@functools.cache
def _large_rows(columns: tuple[str, ...]) -> tuple[str, ...]:
    """LARGE_ROWS valid body lines under ``columns``."""
    rng = np.random.default_rng(29)
    cells = {"id": np.arange(LARGE_ROWS), "stratum": rng.integers(12, size=LARGE_ROWS),
             "x1": rng.integers(2, size=LARGE_ROWS), "x2": rng.integers(3, size=LARGE_ROWS),
             "x3": rng.integers(2, size=LARGE_ROWS), "arm": rng.integers(2, size=LARGE_ROWS),
             "event": rng.integers(2, size=LARGE_ROWS),
             "time": np.round(rng.exponential(20.0, LARGE_ROWS) + 0.01, 3)}
    return tuple(",".join(map(str, values)) for values in zip(
        *(cells[name].tolist() for name in columns)))


def _failing_file(tmp_path, column: str, cell: str, at: int, blank: str):
    """A LARGE_ROWS-row file whose data row ``at`` holds ``cell`` in ``column``,
    with three ``blank`` records before that row: one right after the header,
    one halfway to the row and one right before it."""
    columns = TRIPLE_HEADER if column.startswith("x") else STRATUM_HEADER
    lines = list(_large_rows(columns))
    cells = lines[at].split(",")
    cells[columns.index(column)] = cell
    lines[at] = ",".join(cells)
    for position in (at, at // 2, 0):
        lines.insert(position, blank)
    path = tmp_path / f"{column}_{at}.csv"
    path.write_text("\n".join([",".join(columns), *lines]) + "\n", encoding="utf-8")
    return path


def _count_row_checks(monkeypatch) -> list[int]:
    """Record the row number of every ``_parse_row`` call."""
    parse, rows = io._parse_row, []
    monkeypatch.setattr(io, "_parse_row",
                        lambda row, index, triple, rownum: rows.append(rownum)
                        or parse(row, index, triple, rownum))
    return rows


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("column,cell", FAILING_CELLS)
def test_failing_row_checked_alone(tmp_path, monkeypatch, column, cell, where):
    # The loadtxt pass reads the file, so the first failing row is found by
    # masks; its record alone goes through the row checks, and the error is
    # the reference's, with the empty records counted in its row number.
    path = _failing_file(tmp_path, column, cell, WHERE[where], "")
    expected = _outcome(io._read_rows, path)
    assert expected[0] == "error" and expected[2] == WHERE[where] + 5
    checked = _count_row_checks(monkeypatch)
    _refuse_row_parser(monkeypatch)
    assert _outcome(read_subject_records, path) == expected
    assert checked == [expected[2]]


def test_failing_row_message_is_the_row_parsers(tmp_path):
    path = _failing_file(tmp_path, "arm", "2", LARGE_ROWS - 1, "")
    with pytest.raises(DataFormatError, match="^row 20004: arm must be 0 or 1, got 2$"):
        read_subject_records(path)


@pytest.mark.parametrize("blank", [" ", "\t", " , , ,"])
def test_whitespace_record_sends_a_failing_file_to_the_row_parser(tmp_path, monkeypatch,
                                                                   blank):
    # loadtxt cannot read a record of whitespace, so the row parser reads the
    # file, skipping that record but counting it.
    path = _failing_file(tmp_path, "time", "0", LARGE_ROWS // 2, blank)
    expected = _outcome(io._read_rows, path)
    assert expected == ("error", f"row {LARGE_ROWS // 2 + 5}: time must be strictly "
                        "positive, got 0.0", LARGE_ROWS // 2 + 5)
    checked = _count_row_checks(monkeypatch)
    assert _outcome(read_subject_records, path) == expected
    assert len(checked) == LARGE_ROWS // 2 + 1


def test_located_row_that_passes_falls_back_to_the_row_parser(tmp_path, monkeypatch):
    # A start row that passes, or that no record holds: the whole file is
    # parsed after it, and the outcome is the reference's.
    clean = tmp_path / "clean.csv"
    clean.write_text("id,stratum,arm,time,event\n1,0,1,2.5,1\n2,3,0,1.5,0\n",
                     encoding="utf-8")
    reference = io._read_rows
    expected = _outcome(reference, clean)
    fallbacks = []
    monkeypatch.setattr(io, "_read_rows", lambda path, start=None:
                        fallbacks.append(start) or reference(path, start))
    checked = _count_row_checks(monkeypatch)
    for start, checked_rows in [(0, [2, 2, 3]), (1, [3, 2, 3]), (2, [2, 3])]:
        fallbacks.clear()
        checked.clear()
        assert _outcome(lambda path: io._read_rows(path, start), clean) == expected
        assert fallbacks == [start, None], start
        assert checked == checked_rows, start


DUPLICATED_HEADERS = {
    "id,stratum,arm,time,event,event": "1,0,1,2.5,1,1",
    "id,stratum,arm,time,event,Event": "1,0,1,2.5,1,0",
    "id,x1,x2,x3,arm,time,event,x1": "1,0,1,1,1,2.5,1,0",
    "id,x1,x2,x3,arm,time,event, X3 ": "1,0,1,1,1,2.5,1,1",
}


@pytest.mark.parametrize("source", ["regular", "fifo"])
@pytest.mark.parametrize("header", DUPLICATED_HEADERS)
def test_duplicated_header_name_refused(tmp_path, source, header):
    columns = [c.strip().lower() for c in header.split(",")]
    expected = sorted(STRATUM_HEADER if "stratum" in columns else TRIPLE_HEADER)
    data = f"{header}\n{DUPLICATED_HEADERS[header]}\n".encode("utf-8")
    if source == "regular":
        regular = tmp_path / "dup.csv"
        regular.write_bytes(data)
        got = _outcome(read_subject_records, regular)
        assert got == _outcome(io._read_rows, regular)
    else:
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes")
        got = _read_fifo(tmp_path, data)
    assert got == ("error", f"row 1: header must contain exactly {expected}, got {columns}", 1)


LONG_CELL = "1." + "0" * 140_000  # a valid time, longer than csv's field limit


def _field_limit_error(path, line: int) -> tuple:
    return ("error", f"cannot read dataset {path} at line {line}: field larger than "
            "field limit (131072)", None)


def test_long_header_cell_is_a_format_error(tmp_path):
    path = tmp_path / "long_header.csv"
    path.write_text(f"{' ' * 140_000}id,stratum,arm,time,event\n1,0,1,2.5,1\n",
                    encoding="utf-8")
    assert _outcome(read_subject_records, path) == _field_limit_error(path, 1)
    assert _outcome(io._read_rows, path) == _field_limit_error(path, 1)


def test_long_cell_before_the_failing_row_is_a_format_error(tmp_path, monkeypatch):
    # The loadtxt pass reads the long cell; the row parser, counting the
    # records before the failing row, cannot.
    path = tmp_path / "long_cell.csv"
    path.write_text(f"id,stratum,arm,time,event\n1,0,1,{LONG_CELL},1\n2,0,2,2.5,1\n",
                    encoding="utf-8")
    expected = _outcome(io._read_rows, path)
    assert expected == _field_limit_error(path, 2)
    checked = _count_row_checks(monkeypatch)
    _refuse_row_parser(monkeypatch)
    assert _outcome(read_subject_records, path) == expected
    assert checked == []


def test_long_cell_of_a_clean_file_is_read_by_the_loadtxt_pass(tmp_path, monkeypatch):
    path = tmp_path / "long_clean.csv"
    path.write_text(f"id,stratum,arm,time,event\n1,0,1,{LONG_CELL},1\n2,0,0,2.5,1\n",
                    encoding="utf-8")
    _refuse_row_parser(monkeypatch)
    assert read_subject_records(path).observed_time.tolist() == [1.0, 2.5]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_long_cell_through_a_fifo_is_a_format_error(tmp_path):
    data = f"id,stratum,arm,time,event\n1,0,1,2.5,1\n2,0,1,{LONG_CELL},1\n".encode("utf-8")
    assert _read_fifo(tmp_path, data) == _field_limit_error(tmp_path / "data.fifo", 3)
