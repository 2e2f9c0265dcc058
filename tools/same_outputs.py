"""Check that this tree's simulate output is byte-identical to a git revision's.

Usage: python tools/same_outputs.py REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory, then
runs every ``configs/*.cfg`` at ``--replicates 200`` with ``--workers 1`` and
``--workers 2``, at the config's seed and at ``--seed 2**64 + 12345`` (a seed
of three uint32 words), through both REV's package and this working tree's.
Prints each result CSV or sidecar pair that differs and exits 1 if any does,
else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLICATES = 200
WORKERS = (1, 2)
#: None runs the config's own seed.
SEEDS = (None, 2**64 + 12345)


def export_src(rev: str, dest: Path) -> Path:
    """REV's ``src/`` unpacked under ``dest``; returns the unpacked ``src``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def simulate(src: Path, config: Path, workers: int, seed: int | None,
             out_dir: Path) -> tuple[Path, Path]:
    """Run one config through the package under ``src``; the CSV and sidecar paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.stem}_w{workers}" + ("" if seed is None else f"_s{seed}")
    csv_path, sidecar = out_dir / f"{stem}.csv", out_dir / f"{stem}.json"
    seed_args = [] if seed is None else ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "stratsurv", "simulate", str(config),
                    "-o", str(csv_path), "--sidecar", str(sidecar),
                    "--replicates", str(REPLICATES), "--workers", str(workers), *seed_args],
                   check=True, env=env, stdout=subprocess.DEVNULL, cwd=out_dir)
    return csv_path, sidecar


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    configs = sorted((ROOT / "configs").glob("*.cfg"))
    differ = compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"rev": export_src(args.rev, tmp / "rev"), "tree": ROOT / "src"}
        for config, workers, seed in itertools.product(configs, WORKERS, SEEDS):
            outputs = {name: simulate(src, config, workers, seed, tmp / "out" / name)
                       for name, src in trees.items()}
            for theirs, ours in zip(outputs["rev"], outputs["tree"]):
                compared += 1
                if not filecmp.cmp(theirs, ours, shallow=False):
                    differ += 1
                    print(f"differs: {ours.name} (workers {workers})")
    print(f"{differ} of {compared} files differ from {args.rev} "
          f"({len(configs)} configs, workers {WORKERS}, seeds {SEEDS}, "
          f"{REPLICATES} replicates)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
