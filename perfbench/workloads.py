"""Benchmark inputs made from a seed, the operations timed on them, and the
checks every operation's output must pass.

Only the documented surface of stratsurv is used: ``cli.main`` for the timed
operations, and the library calls listed in the README (``load_study_config``,
``generate_trial``, ``logrank``, ``cox_fit``, ``read_subject_records``,
``partial_likelihood_terms``) for the checks, so that internal refactors of
the program do not break the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

import stratsurv
from stratsurv import cli
from stratsurv.errors import DegenerateTestError, InvalidModelError

#: Seed for which ``reference.json`` stores the expected outputs.
DEFAULT_SEED = 1

MC_REPLICATES = 250
#: Replicates per row of the six-row study: enough that each row's compute,
#: not the per-row pool start-up, dominates a call (see README.md).
STUDY_REPLICATES = 250
FIT_ROWS = 100_000
#: Follow-up of the tied dataset in months. With 12 strata it yields about
#: 1,950 tied event blocks, the count that sets the Efron cost (README.md).
FIT_MONTHS = 240

REL_TOL = 1e-9
GRADIENT_TOL = 1e-6

COX_KEYS = ("unstrat_cox", "mult_cox", "strat_cox")
COX_METHODS = dict(zip(COX_KEYS, (stratsurv.Method.COX_UNSTRATIFIED,
                                  stratsurv.Method.COX_MULTIVARIATE,
                                  stratsurv.Method.COX_STRATIFIED)))
TEST_KEYS = ("lr", "strat_lr") + COX_KEYS
METHOD_KEYS = {m.value: k for k, m in COX_METHODS.items()}

_MC_SMALL_N = """\
# Scenario 1 (no prognostic effect), HR 0.5, D = 66, N = 95.
[scenario]
kind = no_prognostic
base_median = 16

[design]
true_hr = 0.5
events = 66
accrual_months = 14
allocation = balanced
randomization_prob = 0.5
alpha_one_sided = 0.025
power = 0.80
event_fraction = 0.70

[run]
replicates = {replicates}
seed = {seed}
tie_method = efron
se_scale = log
"""

_STUDY_UNEQUAL = """\
# Scenario 2, poor prognosis: strata allocated 7:1, N from 95 to 543.
[scenario]
kind = multiplicative_covariates
base_median = 16
hr_x1 = 0.5
hr_x2_level1 = 0.75
hr_x2_level2 = 1.25
hr_x3 = 0.75

[design]
true_hr = 0.5, 0.55, 0.6, 0.65, 0.7, 0.75
events = 66, 88, 120, 170, 248, 380
accrual_months = 14
allocation = 7:7:7:7:7:7:1:1:1:1:1:1
randomization_prob = 0.5
alpha_one_sided = 0.025
power = 0.80
event_fraction = 0.70

[run]
replicates = {replicates}
seed = {seed}
tie_method = efron
se_scale = log
"""


def derived_seed(seed: int, stream: int) -> int:
    """A master seed for the program, a pure function of the benchmark seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(1)[0]
    return int(state) % (2 ** 31)


def mc_small_n_config(seed: int, replicates: int = MC_REPLICATES) -> str:
    return _MC_SMALL_N.format(replicates=replicates, seed=derived_seed(seed, 1))


def study_config(seed: int, replicates: int = STUDY_REPLICATES) -> str:
    return _STUDY_UNEQUAL.format(replicates=replicates, seed=derived_seed(seed, 2))


def fit_dataset_csv(seed: int, rows: int = FIT_ROWS) -> str:
    """Subject CSV over 12 strata with times rounded up to whole months.

    Exponential event times (stratum medians 6 to 36 months, treatment HR
    0.8), uniform enrollment over 24 months and an analysis at month
    ``FIT_MONTHS``; rounding makes nearly every event time tied, and each
    stratum has a tied block in nearly every month until its tail runs out.
    """
    rng = np.random.default_rng(np.random.SeedSequence([derived_seed(seed, 3)]))
    stratum = rng.integers(0, 12, rows)
    arm = rng.integers(0, 2, rows)
    median = np.linspace(6.0, 36.0, 12)[stratum]
    rate = math.log(2.0) / median * np.where(arm == 1, 0.8, 1.0)
    latent = rng.exponential(1.0 / rate)
    censor = FIT_MONTHS - rng.uniform(0.0, 24.0, rows)
    event = (latent <= censor).astype(np.int64)
    months = np.ceil(np.minimum(latent, censor)).astype(np.int64)
    lines = ["id,stratum,arm,time,event\n"]
    lines += [f"{i},{s},{a},{t},{e}\n"
              for i, (s, a, t, e) in enumerate(zip(stratum.tolist(), arm.tolist(),
                                                   months.tolist(), event.tolist()))]
    return "".join(lines)


def tied_event_blocks(csv_text: str) -> int:
    """Number of (stratum, time) blocks holding two or more events."""
    data = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, dtype=np.int64)
    events = data[data[:, 4] == 1]
    _, counts = np.unique(events[:, 1] * 10_000 + events[:, 3], return_counts=True)
    return int((counts > 1).sum())


def close(a, b, rel: float = REL_TOL) -> bool:
    """Relative agreement, with an absolute floor for values near zero."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


@dataclass
class OpResult:
    """One timed operation: wall time and output check outcome."""

    wall_s: float
    attempted: int
    failed: int
    units: int
    problems: list[str]


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue()


class Workload:
    """A closed loop of identical ``cli.main`` calls on generated inputs."""

    name = ""
    unit_label = ""
    units_per_op = 0
    #: Operations counted per call: study rows, or one fit.
    ops_per_call = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.first: dict | None = None
        #: Expected outputs, set only when the seed has a stored reference.
        self.reference: dict | None = None

    def op(self) -> OpResult:
        """Run one operation and check it against the first one's output."""
        raise NotImplementedError

    def attempt(self, fn=None) -> OpResult:
        """Run ``fn`` (default: one operation); an exception counts as failed."""
        start = time.perf_counter()
        try:
            return (fn or self.op)()
        except Exception:  # a broken program is reported, not fatal to the run
            n = self.ops_per_call
            return OpResult(time.perf_counter() - start, n, n, 0,
                            [traceback.format_exc().strip().splitlines()[-1]])

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class McWorkload(Workload):
    """``simulate`` on a generated config; one study row is one operation."""

    unit_label = "replicates"

    def __init__(self, workdir, seed, config_maker, workers, dump):
        super().__init__(workdir, seed)
        self.config_maker = config_maker
        self.config_path = self._path("study.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config_maker(seed))
        self.workers = workers
        self.dump_dir = self._path("datasets") if dump else None
        self.configs = stratsurv.load_study_config(self.config_path).sim_configs()
        self.units_per_op = sum(c.replicates for c in self.configs)
        self.ops_per_call = len(self.configs)

    def argv(self, config_path: str | None = None, workers: int | None = None,
             output: str = "results.csv") -> list[str]:
        argv = ["simulate", config_path or self.config_path, "-o", self._path(output),
                "--workers", str(workers or self.workers)]
        if self.dump_dir is not None:
            argv += ["--dump-datasets", self.dump_dir]
        return argv

    def _outputs(self) -> tuple[bytes, bytes]:
        with open(self._path("results.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(self._path("results.csv.json"), "rb") as fh:
            sidecar = fh.read()
        return csv_bytes, sidecar

    def op(self) -> OpResult:
        rows = self.ops_per_call
        wall, rc, _ = run_cli(self.argv())
        try:
            csv_bytes, sidecar = self._outputs()
        except OSError as exc:
            return OpResult(wall, rows, rows, self.units_per_op, [f"no output: {exc}"])
        if self.first is None:
            self.first = {"csv": csv_bytes, "sidecar": sidecar}
            problems = self.check_first(json.loads(sidecar))
        else:
            problems = []
            if sidecar != self.first["sidecar"]:
                problems.append("sidecar differs from the first operation's")
            if csv_bytes != self.first["csv"]:
                problems.append("result CSV differs from the first operation's")
        if rc != 0:
            problems.append(f"exit code {rc}")
        failed = rows if problems else 0
        return OpResult(wall, rows, failed, self.units_per_op, problems)

    def serial_op(self) -> OpResult:
        """The same study at one worker; its rows must equal the first op's."""
        rows = self.ops_per_call
        wall, rc, _ = run_cli(self.argv(workers=1, output="serial.csv"))
        problems = [] if rc == 0 else [f"serial run exit code {rc}"]
        with open(self._path("serial.csv"), "rb") as fh:
            if fh.read() != self.first["csv"]:
                problems.append("result CSV at one worker differs from the pooled run's")
        with open(self._path("serial.csv.json"), "rb") as fh:
            if json.load(fh)["rows"] != json.loads(self.first["sidecar"])["rows"]:
                problems.append("sidecar rows at one worker differ from the pooled run's")
        return OpResult(wall, rows, rows if problems else 0, self.units_per_op, problems)

    def check_first(self, sidecar: dict) -> list[str]:
        """Serial replay, dumped datasets and (at the default seed) reference."""
        problems = []
        if len(sidecar["rows"]) != len(self.configs):
            problems.append(f"sidecar has {len(sidecar['rows'])} rows, "
                            f"expected {len(self.configs)}")
        for cfg, row in zip(self.configs, sidecar["rows"]):
            if "error" in row:
                problems.append(f"row {row['true_hr']} failed: {row['error']}")
                continue
            problems += compare_row(replay_row(cfg), row, f"replay of row {row['true_hr']}")
        if self.reference is not None:
            for ref, row in zip(self.reference["rows"], sidecar["rows"]):
                problems += compare_row(ref, row, f"reference row {ref['true_hr']}")
        if self.dump_dir is not None:
            problems += self.check_dumps()
        return problems

    def dump_op(self) -> OpResult:
        """The dumped-dataset check as an operation of its own."""
        problems = self.check_dumps()
        return OpResult(0.0, 1, int(bool(problems)), 0, problems)

    def check_dumps(self) -> list[str]:
        """Each dumped CSV re-reads to replicate 0 of its row."""
        problems = []
        for i, cfg in enumerate(self.configs):
            path = os.path.join(self.dump_dir, f"row{i:02d}_replicate0.csv")
            got = stratsurv.read_subject_records(path)
            want = stratsurv.generate_trial(cfg.design, cfg.scenario,
                                            stratsurv.RngStream(cfg.master_seed, 0))
            keep = want.observed_time > 0
            for field in ("subject_id", "stratum_index", "arm", "observed_time", "event"):
                if not np.array_equal(getattr(got, field), getattr(want, field)[keep]):
                    problems.append(f"dumped dataset {i} differs in {field}")
        return problems


def replay_row(cfg) -> dict:
    """Recompute one row's metrics serially from the public analysis calls.

    Follows the documented rules: a degenerate test never rejects, and a Cox
    fit counts only when it converged with a finite SE.
    """
    alpha = cfg.design.alpha_one_sided
    zcrit = float(norm.ppf(alpha))
    hrs = {k: [] for k in COX_KEYS}
    ses = {k: [] for k in COX_KEYS}
    rejects = dict.fromkeys(TEST_KEYS, 0)
    for i in range(cfg.replicates):
        data = stratsurv.generate_trial(cfg.design, cfg.scenario,
                                        stratsurv.RngStream(cfg.master_seed, i))
        for key, stratified in (("lr", False), ("strat_lr", True)):
            try:
                rejects[key] += stratsurv.logrank(data, stratified=stratified).z < zcrit
            except DegenerateTestError:
                pass
        for key, method in COX_METHODS.items():
            spec = stratsurv.AnalysisSpec(method, tie_method=cfg.tie_method,
                                          alpha_one_sided=alpha)
            try:
                fit = stratsurv.cox_fit(data, spec)
            except InvalidModelError:
                continue
            if fit.converged and math.isfinite(fit.treatment_se):
                hrs[key].append(fit.treatment_hr)
                ses[key].append(fit.treatment_se)
                rejects[key] += fit.wald_z < zcrit
    true_hr = cfg.design.true_hr
    methods = {}
    for key in COX_KEYS:
        h, s = np.array(hrs[key]), np.array(ses[key])
        if cfg.se_scale == "hr":
            s = h * s
        used = len(h)
        methods[key] = {
            "avg_bias": float(np.mean(h) - true_hr) if used else None,
            "avg_se": float(np.mean(s)) if used else None,
            "mse": float(np.mean((h - true_hr) ** 2)) if used else None,
            "replicates_used": used,
        }
    n = cfg.replicates
    return {"true_hr": true_hr, "methods": methods,
            "power": {k: c / n for k, c in rejects.items()}, "replicates": n}


def compare_row(want: dict, got: dict, what: str) -> list[str]:
    """Bias, SE and MSE to ``REL_TOL`` relative; counts and power exactly."""
    problems = []
    n = got.get("replicates", 0)
    if n != want["replicates"]:
        return [f"{what}: {n} replicates, expected {want['replicates']}"]
    for key in COX_KEYS:
        w, g = want["methods"][key], got["methods"][key]
        for metric in ("avg_bias", "avg_se", "mse"):
            if not close(w[metric], g[metric]):
                problems.append(f"{what}: {key} {metric} {g[metric]!r} != {w[metric]!r}")
        if w["replicates_used"] != g["replicates_used"]:
            problems.append(f"{what}: {key} replicates_used differs")
    for key in TEST_KEYS:
        if round(want["power"][key] * n) != round(got["power"][key] * n):
            problems.append(f"{what}: power count of {key} differs")
    return problems


class FitWorkload(Workload):
    """``fit --method cox-stratified --ties efron`` on a tied 100k-row CSV."""

    unit_label = "dataset rows"

    def __init__(self, workdir, seed, csv_text):
        super().__init__(workdir, seed)
        self.data_path = self._path("data.csv")
        with open(self.data_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        self.units_per_op = csv_text.count("\n") - 1

    def argv(self) -> list[str]:
        return ["fit", self.data_path, "--method", "cox-stratified",
                "--ties", "efron", "--json"]

    def op(self) -> OpResult:
        wall, rc, out = run_cli(self.argv())
        if self.first is None:
            self.first = {"stdout": out}
            problems = self.check_first(out)
        else:
            problems = [] if out == self.first["stdout"] else [
                "fit output differs from the first operation's"]
        if rc != 0:
            problems.append(f"exit code {rc}")
        return OpResult(wall, 1, 1 if problems else 0, self.units_per_op, problems)

    def breslow_op(self) -> OpResult:
        """A Breslow fit of a fresh read of the dataset: the floor for Efron."""
        data = stratsurv.read_subject_records(self.data_path)
        spec = stratsurv.AnalysisSpec(stratsurv.Method.COX_STRATIFIED, tie_method="breslow")
        fit = stratsurv.cox_fit(data, spec)
        problems = [] if fit.converged else [f"Breslow fit failed: {fit.diagnostic}"]
        return OpResult(0.0, 1, int(bool(problems)), 0, problems)

    def tied_event_blocks(self) -> int:
        with open(self.data_path, encoding="utf-8") as fh:
            return tied_event_blocks(fh.read())

    def check_first(self, stdout: str) -> list[str]:
        """Score at the returned beta is zero; default seed matches reference."""
        try:
            result = json.loads(stdout)
        except ValueError:
            return ["fit printed no JSON"]
        data = stratsurv.read_subject_records(self.data_path)
        spec = stratsurv.AnalysisSpec(stratsurv.Method.COX_STRATIFIED, tie_method="efron")
        beta = np.array(list(result["coefficients"].values()))
        _, grad, _ = stratsurv.partial_likelihood_terms(data, spec, beta)
        problems = []
        if not float(np.abs(grad).max()) < GRADIENT_TOL:
            problems.append(f"gradient {np.abs(grad).max():.3g} at the returned beta")
        if self.reference is not None:
            problems += compare_fit(self.reference, result)
        return problems


def compare_fit(want: dict, got: dict) -> list[str]:
    problems = []
    for key in ("hr", "log_hr", "se", "wald_z", "p_one_sided"):
        if not close(want[key], got[key]):
            problems.append(f"fit {key} {got[key]!r} != reference {want[key]!r}")
    for name, value in want["coefficients"].items():
        if not close(value, got["coefficients"].get(name)):
            problems.append(f"fit coefficient {name} differs from reference")
    for key in ("method", "tie_method", "iterations"):
        if want[key] != got[key]:
            problems.append(f"fit {key} {got[key]!r} != reference {want[key]!r}")
    return problems


#: Input sizes of the companion inputs that traced runs use for layers
#: their own workload does not reach.
SMALL = {"mc_small_n": 20, "study_unequal_w2": 5, "fit_tied_100k": 5000}


def make(name: str, workdir: str, seed: int, small: bool = False) -> Workload:
    """Build a workload's inputs from the seed (small: a companion input)."""
    os.makedirs(workdir, exist_ok=True)
    if name == "mc_small_n":
        reps = SMALL[name] if small else MC_REPLICATES
        workload = McWorkload(workdir, seed, lambda s, r=reps: mc_small_n_config(s, r),
                              workers=1, dump=False)
    elif name == "study_unequal_w2":
        reps = SMALL[name] if small else STUDY_REPLICATES
        workload = McWorkload(workdir, seed, lambda s, r=reps: study_config(s, r),
                              workers=2, dump=True)
    elif name == "fit_tied_100k":
        workload = FitWorkload(workdir, seed,
                               fit_dataset_csv(seed, SMALL[name] if small else FIT_ROWS))
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.name = name
    return workload


WORKLOADS = ("mc_small_n", "study_unequal_w2", "fit_tied_100k")
