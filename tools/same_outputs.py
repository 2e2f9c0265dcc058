"""Check that this tree's simulate, fit and design output is byte-identical to a git revision's.

Usage: python tools/same_outputs.py REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory, then
runs every ``configs/*.cfg``, and a generated config of event targets 1, 2
and 3, at ``--replicates 690`` with ``--workers 1`` and ``--workers 2``, at
the config's seed and at ``--seed 2**64 + 12345`` (a seed of three uint32
words), through both REV's package and this working tree's, with
``--dump-datasets`` and relative output names, keeping each run's stdout
(text at the config's seed, ``--json`` at the other). The generated config's
rows hold the layouts of absent metrics: at D = 1 no fit is usable, and at
D = 2 and 3 the multivariate fit never is and the stratified one only in a
handful of replicates (one at D = 2 at the config's seed, which leaves a mean
without an MCSE). It also writes a seeded dataset of 20,000 subjects over 12
strata with times rounded up to whole months, so that nearly every event
time is tied, and runs ``fit`` on it, as text and with ``--json``, for every
method, under both tie rules for the Cox methods; ``fit`` on three failing
copies of it (``arm`` 2 in the last row, a zero time and an ``abc`` time in
the middle row), keeping each exit code and stderr; and ``design``, as text
and with ``--json``, at three hazard ratios.
Those outputs do not show a fit taking one more Newton iteration or a
replicate excluded for another reason, so for each config row and tie rule
it also analyzes one batch of ``BATCH_SUBJECT_ROWS // N`` replicates with
``inference.analyze_trials`` in a subprocess per package, saves both log-rank
z columns and every array of each Cox fit with ``np.savez``, and compares
them bit for bit, NaN equal to NaN. Prints each result CSV, sidecar, dumped
dataset, stdout or fit record that differs and exits 1 if any does, else 0.
For a differing sidecar, JSON stdout or fit record it also prints how far its
numbers moved: the largest relative difference |a - b| / max(|a|, |b|) and
where it occurs, NaN equal to NaN (inf where a value or key is on one side only,
or a string or NaN changed), for a fit record once per field. A JSON file
that holds every leaf of REV's unchanged and more instead prints the distinct
names of the keys it adds, with each list index and each key above them in
which they differ written as ``*``, as in ``only keys added:
rows[*].power_mcse``. A p-value (``p_one_sided``) is compared on the log
scale, |log a - log b| / max(|log a|, |log b|): on that scale a far-tail p
moves about twice as far, relatively, as its z, while p itself moves about
z^2 times as far.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Above twice 2**15 // 95 = 344, the most replicates one batch holds at the
#: smallest N (95), so every row of every config spans at least two batches
#: at both worker counts.
REPLICATES = 690
WORKERS = (1, 2)
#: None runs the config's own seed.
SEEDS = (None, 2**64 + 12345)
FIT_ROWS = 20_000
FIT_SEED = 20261019
LOGRANK_METHODS = ("logrank", "logrank-stratified")
COX_METHODS = ("cox-unstratified", "cox-multivariate", "cox-stratified")
TIES = ("efron", "breslow")
DESIGN_HRS = ("0.5", "0.6", "0.75")
#: Failing copies of the tied dataset: (data row, column, cell).
FAILING_FITS = {"arm_last": (FIT_ROWS - 1, "arm", "2"),
                "time_zero_middle": (FIT_ROWS // 2, "time", "0"),
                "time_abc_middle": (FIT_ROWS // 2, "time", "abc")}
FORMATS = ((), ("--json",))
#: The generated config of tiny event targets, run beside ``configs/*.cfg``.
TINY_EVENTS_CONFIG = """\
[scenario]
kind = no_prognostic
base_median = 16

[design]
true_hr = 0.5, 0.6, 0.7
events = 1, 2, 3

[run]
seed = 20261022
"""


class _Absent:
    """A value on the other side only."""

    def __repr__(self) -> str:
        return "absent"


ABSENT = _Absent()


def export_src(rev: str, dest: Path) -> Path:
    """REV's ``src/`` unpacked under ``dest``; returns the unpacked ``src``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def stratsurv(src: Path, args: list[str], out: Path, failing: bool = False) -> Path:
    """Run ``stratsurv ARGS`` from the package under ``src`` in ``out``'s
    directory, which it makes; writes its stdout to ``out`` and returns it.
    A ``failing`` run may exit nonzero, and ``out`` holds its exit code and
    stderr instead."""
    out.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "stratsurv", *args], check=not failing,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, cwd=out.parent)
    out.write_bytes(b"exit %d\n" % proc.returncode + proc.stderr if failing else proc.stdout)
    return out


def simulate(src: Path, config: Path, workers: int, seed: int | None,
             out_dir: Path) -> tuple[Path, ...]:
    """Run one config through the package under ``src``; the paths of the CSV,
    the sidecar, the stdout and the dumped datasets, in name order."""
    stem = f"{config.stem}_w{workers}" + ("" if seed is None else f"_s{seed}")
    extra = [] if seed is None else ["--seed", str(seed), "--json"]
    stdout = stratsurv(src, ["simulate", str(config), "-o", f"{stem}.csv",
                             "--sidecar", f"{stem}.json", "--replicates", str(REPLICATES),
                             "--workers", str(workers), *extra,
                             "--dump-datasets", f"{stem}_datasets"],
                       out_dir / f"{stem}.stdout")
    return (out_dir / f"{stem}.csv", out_dir / f"{stem}.json", stdout,
            *sorted((out_dir / f"{stem}_datasets").iterdir()))


def write_fit_records(config: str, out: str) -> None:
    """Save into ``out`` (``np.savez``) the analyses of one batch of each row
    of ``config`` under each tie rule, by the ``stratsurv`` package on the
    import path; run in a subprocess per package."""
    from stratsurv.config import load_study_config
    from stratsurv.datagen import generate_trials, stream_states, stream_uniforms
    from stratsurv.inference import analyze_trials
    from stratsurv.simulate import BATCH_SUBJECT_ROWS

    arrays = {}
    for row, cfg in enumerate(load_study_config(config).sim_configs()):
        n = cfg.design.sample_size
        states = stream_states(cfg.master_seed, 0, max(1, BATCH_SUBJECT_ROWS // n))
        trials = generate_trials(cfg.design, cfg.scenario, stream_uniforms(states, n))
        for ties in TIES:
            analyses = analyze_trials(trials, ties)
            arrays[f"row{row}_{ties}_logrank_z"] = analyses.logrank_z
            arrays[f"row{row}_{ties}_stratified_logrank_z"] = analyses.stratified_logrank_z
            for method, fits in zip(COX_METHODS, analyses.fits):
                arrays.update((f"row{row}_{ties}_{method}_{field}", values)
                              for field, values in fits._asdict().items())
    np.savez(out, **arrays)


def fit_records(src: Path, config: Path, out: Path) -> dict[str, np.ndarray]:
    """The arrays ``write_fit_records`` saves of ``config`` by the package
    under ``src``, through the file ``out``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    code = ("import sys, same_outputs; "
            "same_outputs.write_fit_records(sys.argv[1], sys.argv[2])")
    path = os.pathsep.join((str(src), str(Path(__file__).resolve().parent)))
    subprocess.run([sys.executable, "-c", code, str(config), str(out)], check=True,
                   env=dict(os.environ, PYTHONPATH=path))
    with np.load(out) as saved:
        return dict(saved)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bits, NaN equal to NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        a, b = (np.where(np.isnan(x), np.nan, x) for x in (a, b))
    return a.tobytes() == b.tobytes()


def relative_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|) of two arrays of one shape, elementwise: 0
    where equal, NaN equal to NaN; inf where only one side is NaN."""
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, rel)
    return np.where(np.isnan(rel), np.inf, rel)


def compared_values(key: str, values) -> np.ndarray:
    """``values`` as ``largest_difference`` compares them: the log of a
    p-value, anything else as it is."""
    values = np.asarray(values, dtype=float)
    if not key.endswith("p_one_sided"):
        return values
    with np.errstate(divide="ignore"):
        return np.log(values)


def json_numbers(value, where: str = "") -> dict[str, object]:
    """The leaves of a JSON value by their path, such as ``rows[2].power.logrank``."""
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else str(key), v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return {where: value}
    return {path: leaf for key, v in items for path, leaf in json_numbers(v, key).items()}


def largest_difference(theirs: dict, ours: dict) -> str:
    """Where two records of named numbers (JSON leaves or arrays) differ the
    most, relatively, and the two values there."""
    worst = (0.0, "", None, None)
    for key in sorted(theirs.keys() | ours.keys()):
        a, b = theirs.get(key, ABSENT), ours.get(key, ABSENT)
        if a is ABSENT or b is ABSENT:
            found = (np.inf, key, a, b)
        elif a is None or b is None or isinstance(a, str) or isinstance(b, str):
            found = (0.0 if a == b else np.inf, key, a, b)
        elif np.shape(a) != np.shape(b):
            found = (np.inf, key, f"shape {np.shape(a)}", f"shape {np.shape(b)}")
        elif not np.size(a):
            continue
        else:
            diffs = relative_differences(compared_values(key, a), compared_values(key, b))
            index = np.unravel_index(np.argmax(diffs), diffs.shape)
            found = (float(diffs[index]), key + "".join(f"[{i}]" for i in index),
                     *(v if np.ndim(v) == 0 else np.asarray(v)[index].item() for v in (a, b)))
        if found[0] > worst[0]:
            worst = found
    rel, where, a, b = worst
    return f"largest relative difference {rel:.3g}" + (f" at {where}: {a!r} vs {b!r}"
                                                       if where else "")


def fit_field(key: str) -> str:
    """The field of a fit-record key ``row{r}_{ties}_{field}``."""
    return key.split("_", 2)[2]


def key_names(paths, other) -> list[str]:
    """The distinct names of the keys that hold the JSON leaf ``paths`` and
    that no leaf path of ``other`` passes through: each list index written as
    ``[*]``, and each key above the named one in which names that agree
    everywhere else differ written as ``*``, as in ``rows[*].methods.*.mse``."""
    def prefixes(path):
        return itertools.accumulate(re.split(r"(?=[.[])", path))

    shared = {prefix for path in other for prefix in prefixes(path)}
    roots = {next(p for p in prefixes(path) if p not in shared) for path in paths}
    names = {tuple(re.sub(r"\[\d+\]", "[*]", root).split(".")) for root in roots}
    for i in range(max(map(len, names), default=0)):
        keys = defaultdict(set)
        for name in names:
            keys[len(name), name[:i], name[i + 1:]].add(name[i:i + 1])
        names = {name[:i] + (("*",) if i < len(name) - 1 and
                             len(keys[len(name), name[:i], name[i + 1:]]) > 1
                             else name[i:i + 1]) + name[i + 1:] for name in names}
    return sorted(".".join(name) for name in names)


def same_leaf(a, b) -> bool:
    """Whether two JSON leaves are equal, of one type, NaN equal to NaN."""
    return type(a) is type(b) and (a == b or a != a and b != b)


def moved(theirs: Path, ours: Path) -> str:
    """How far the numbers of two differing JSON files moved, or which keys
    the second adds if it holds every leaf of the first unchanged, or ''."""
    try:
        a, b = (json_numbers(json.loads(path.read_text())) for path in (theirs, ours))
    except ValueError:
        return ""
    if a.keys() < b.keys() and all(same_leaf(a[key], b[key]) for key in a):
        return f" (only keys added: {', '.join(key_names(b.keys() - a.keys(), a))})"
    return f" ({largest_difference(a, b)})"


def write_tied_dataset(path: Path) -> None:
    """A month-tied subject CSV: exponential times (stratum medians 6 to 36
    months, treatment HR 0.8) censored 12 to 36 months after entry, then
    rounded up to whole months."""
    rng = np.random.default_rng(FIT_SEED)
    stratum = rng.integers(0, 12, FIT_ROWS)
    arm = rng.integers(0, 2, FIT_ROWS)
    rate = np.log(2.0) / np.linspace(6.0, 36.0, 12)[stratum] * np.where(arm == 1, 0.8, 1.0)
    latent = rng.exponential(1.0 / rate)
    censor = rng.uniform(12.0, 36.0, FIT_ROWS)
    months = np.ceil(np.minimum(latent, censor)).astype(int)
    rows = zip(stratum.tolist(), arm.tolist(), months.tolist(), (latent <= censor).tolist())
    path.write_text("id,stratum,arm,time,event\n" + "".join(
        f"{i},{s},{a},{t},{int(e)}\n" for i, (s, a, t, e) in enumerate(rows)))


def write_failing_dataset(tied: Path, path: Path, row: int, column: str, cell: str) -> None:
    """The tied dataset with ``cell`` in ``column`` of data row ``row``."""
    lines = tied.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = cell
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    configs = sorted((ROOT / "configs").glob("*.cfg"))
    fits = [(m, []) for m in LOGRANK_METHODS] + [
        (m, ["--ties", ties]) for m, ties in itertools.product(COX_METHODS, TIES)]
    differ = compared = 0

    def compare(outputs: dict[str, tuple[Path, ...]]) -> None:
        nonlocal differ, compared
        rev, tree = outputs["rev"], outputs["tree"]
        if [p.name for p in rev] != [p.name for p in tree]:
            differ += 1
            print(f"different files written: {[p.name for p in tree]}")
        for theirs, ours in zip(rev, tree):
            compared += 1
            if not filecmp.cmp(theirs, ours, shallow=False):
                differ += 1
                print(f"differs: {ours.parent.name}/{ours.name}{moved(theirs, ours)}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"rev": export_src(args.rev, tmp / "rev"), "tree": ROOT / "src"}
        configs.append(tmp / "tiny_events.cfg")
        configs[-1].write_text(TINY_EVENTS_CONFIG)
        for config, workers, seed in itertools.product(configs, WORKERS, SEEDS):
            compare({name: simulate(src, config, workers, seed, tmp / "out" / name)
                     for name, src in trees.items()})
        dataset = tmp / "tied.csv"
        write_tied_dataset(dataset)
        commands = [["fit", str(dataset), "--method", method, *ties, *fmt]
                    for (method, ties), fmt in itertools.product(fits, FORMATS)]
        commands += [["design", "--hr", hr, *fmt]
                     for hr, fmt in itertools.product(DESIGN_HRS, FORMATS)]
        for command in commands:
            stem = "_".join(arg.lstrip("-") for arg in command if arg != str(dataset))
            compare({name: (stratsurv(src, command, tmp / "out" / name / f"{stem}.stdout"),)
                     for name, src in trees.items()})
        for case, (row, column, cell) in FAILING_FITS.items():
            failing = tmp / f"{case}.csv"
            write_failing_dataset(dataset, failing, row, column, cell)
            compare({name: (stratsurv(src, ["fit", str(failing), "--method", "logrank"],
                                      tmp / "out" / name / f"fit_{case}.stderr", failing=True),)
                     for name, src in trees.items()})
        for config in configs:
            theirs, ours = (fit_records(src, config, tmp / "fits" / name / f"{config.stem}.npz")
                            for name, src in trees.items())
            compared += 1
            different = sorted(theirs.keys() ^ ours.keys()) or [
                key for key in ours if not same_bits(theirs[key], ours[key])]
            if different:
                differ += 1
                print(f"differs: fits/{config.stem}.npz:")
                # one line per field, over its config rows and tie rules
                for field, keys in itertools.groupby(sorted(different, key=fit_field),
                                                     key=fit_field):
                    keys = list(keys)
                    records = ({key: saved[key] for key in keys if key in saved}
                               for saved in (theirs, ours))
                    print(f"  {field}: {len(keys)} arrays, {largest_difference(*records)}")
    print(f"{differ} of {compared} files differ from {args.rev} "
          f"({len(configs) - 1} configs and one of events 1, 2, 3; workers {WORKERS}, "
          f"seeds {SEEDS}, {REPLICATES} replicates; {len(fits) * len(FORMATS)} fits of "
          f"{FIT_ROWS} tied rows and {len(FAILING_FITS)} of failing copies; "
          f"{len(DESIGN_HRS) * len(FORMATS)} designs; one batch of each config row's fits "
          f"under ties {TIES})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
