"""End-to-end tests of the command-line interface and its exit codes."""

import concurrent.futures
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

CONFIG_TEXT = """
[scenario]
kind = no_prognostic
base_median = 16

[design]
true_hr = 0.5
events = 20

[run]
replicates = 6
seed = 42
"""


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "stratsurv", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestImport:
    def test_cli_import_loads_no_scipy_stats(self, tmp_path):
        # The runtime needs numpy alone: with scipy blocked, every subcommand
        # runs, at one and two workers, and no scipy module is ever loaded.
        config = Path(__file__).resolve().parents[1] / "configs" / "table1_scenario1.cfg"
        code = f"""
import json, sys
sys.modules["scipy"] = None
from stratsurv.cli import main
out = {str(tmp_path)!r}
codes = [main(["design", "--hr", "0.5"])]
for w in ("1", "2"):
    codes.append(main(["simulate", {str(config)!r}, "--replicates", "20", "--workers", w,
                       "-o", f"{{out}}/w{{w}}.csv", "--dump-datasets", f"{{out}}/dump{{w}}"]))
for method in ("logrank", "logrank-stratified", "cox-unstratified",
               "cox-multivariate", "cox-stratified"):
    codes.append(main(["fit", f"{{out}}/dump2/row00_replicate0.csv", "--method", method]))
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
print(json.dumps([codes, loaded]))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * 8
        assert loaded == []
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_cli_import_loads_no_numpy_random(self):
        # only the Monte Carlo path draws; fit and design never pay numpy.random's import
        code = "import sys, stratsurv.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_only_a_pool_loads_the_pool_modules(self, tmp_path):
        # a 1-worker simulate, fit and design start no process, so none of them
        # imports concurrent.futures, multiprocessing or the logging it pulls in
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        code = f"""
import contextlib, io, json, sys
from stratsurv.cli import main
out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["simulate", {str(cfg)!r}, "--workers", "1", "-o", f"{{out}}/r.csv",
                   "--dump-datasets", f"{{out}}/dump"]),
             main(["fit", f"{{out}}/dump/row00_replicate0.csv", "--method", "cox-stratified"]),
             main(["design", "--hr", "0.5"])]
print(json.dumps([codes, sorted({{"concurrent.futures", "multiprocessing", "logging"}}
                                & set(sys.modules))]))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0], []]


class TestDesignCommand:
    def test_reference_design(self):
        proc = run_cli("design", "--hr", "0.5", "--alpha", "0.025", "--power", "0.8")
        assert proc.returncode == 0
        assert "events (D): 66" in proc.stdout
        assert "sample size (N): 95" in proc.stdout

    def test_hr_075(self):
        proc = run_cli("design", "--hr", "0.75", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"hr": 0.75, "events": 380, "sample_size": 543}

    def test_hr_one_is_validation_error(self):
        proc = run_cli("design", "--hr", "1.0")
        assert proc.returncode == 2
        assert "hr must differ from 1" in proc.stderr

    def test_out_of_range_power(self):
        proc = run_cli("design", "--hr", "0.5", "--power", "1.5")
        assert proc.returncode == 2

    @pytest.mark.parametrize("hr", ["0.5", "0.6", "0.75"])
    def test_text_renders_the_json_record(self, capsys, hr):
        from stratsurv.cli import main

        assert main(["design", "--hr", hr, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(["design", "--hr", hr]) == 0
        assert capsys.readouterr().out == (f"events (D): {record['events']}\n"
                                           f"sample size (N): {record['sample_size']}\n")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        import argparse

        from stratsurv.cli import main

        parsers, real = [], argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, *args:
                            parsers.append(self) or real(self, *args))
        assert main(["--json", "design", "--hr", "0.6"]) == 0
        assert json.loads(capsys.readouterr().out)["events"] == 121
        assert main(["design", "--hr", "0.6"]) == 0
        assert capsys.readouterr().out.startswith("events (D): 121\n")
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_zero_event_fraction_is_validation_error(self, capsys):
        from stratsurv.cli import main
        assert main(["design", "--hr", "0.7", "--event-fraction", "0"]) == 2
        assert capsys.readouterr().err == "error: event_fraction must be in (0, 1], got 0.0\n"


class TestFitCommand:
    def test_cox_analytic_dataset(self, tmp_path):
        data = tmp_path / "three.csv"
        data.write_text("id,stratum,arm,time,event\n"
                        "1,0,1,1.0,1\n2,0,0,2.0,1\n3,0,1,3.0,0\n")
        proc = run_cli("fit", str(data), "--method", "cox-unstratified", "--json")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["log_hr"] == pytest.approx(-0.5 * math.log(2.0), abs=1e-6)

    def test_logrank_two_subject_dataset(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("id,stratum,arm,time,event\n1,0,1,1.0,1\n2,0,0,2.0,1\n")
        proc = run_cli("fit", str(data), "--method", "logrank", "--json")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["z"] == 1.0
        assert out["observed_minus_expected"] == 0.5

    def test_negative_time_row_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("id,stratum,arm,time,event\n1,0,1,2.0,1\n2,0,0,-1.0,1\n")
        proc = run_cli("fit", str(data), "--method", "logrank")
        assert proc.returncode == 2
        assert "time" in proc.stderr and "3" in proc.stderr

    def test_bad_last_row_is_one_error_line(self, tmp_path):
        # the file is read in one pass, then reported from its failing row
        rows = 2000
        data = tmp_path / "bad_last.csv"
        data.write_text("id,stratum,arm,time,event\n" + "".join(
            f"{i},{i % 12},{2 if i == rows - 1 else i % 2},{1 + i % 30}.5,{i % 2}\n"
            for i in range(rows)))
        proc = run_cli("fit", str(data), "--method", "cox-stratified")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: row {rows + 1}: arm must be 0 or 1, got 2\n"

    def test_duplicated_header_name_is_one_error_line(self, tmp_path):
        data = tmp_path / "dup.csv"
        data.write_text("id,stratum,arm,time,event,Event\n1,0,1,2.5,1,1\n")
        proc = run_cli("fit", str(data), "--method", "logrank")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: row 1: header must contain exactly ['arm', 'event', 'id', 'stratum', "
            "'time'], got ['id', 'stratum', 'arm', 'time', 'event', 'event']\n")

    def test_cell_past_the_csv_field_limit_is_one_error_line(self, tmp_path):
        # loadtxt reads the long time cell; the failing row sends the file
        # to the row parser, whose csv reader cannot read that record.
        data = tmp_path / "long_cell.csv"
        data.write_text("id,stratum,arm,time,event\n"
                        f"1,0,1,1.{'0' * 140_000},1\n2,0,2,2.5,1\n")
        proc = run_cli("fit", str(data), "--method", "logrank")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: cannot read dataset {data} at line 2: "
                               "field larger than field limit (131072)\n")

    def test_degenerate_logrank_is_runtime_error(self, tmp_path):
        data = tmp_path / "one_arm.csv"
        data.write_text("id,stratum,arm,time,event\n1,0,1,1.0,1\n2,0,1,2.0,1\n")
        proc = run_cli("fit", str(data), "--method", "logrank")
        assert proc.returncode == 3

    def test_separation_is_runtime_error(self, tmp_path):
        data = tmp_path / "sep.csv"
        data.write_text("id,stratum,arm,time,event\n1,0,1,1.0,1\n2,0,0,2.0,0\n")
        proc = run_cli("fit", str(data), "--method", "cox-unstratified")
        assert proc.returncode == 3
        assert "converge" in proc.stderr

    def test_alpha_flag_rejected(self, tmp_path):
        # a fit reports a p-value, not a decision, so it takes no test level
        data = tmp_path / "three.csv"
        data.write_text("id,stratum,arm,time,event\n"
                        "1,0,1,1.0,1\n2,0,0,2.0,1\n3,0,1,3.0,0\n")
        proc = run_cli("fit", str(data), "--method", "cox-stratified", "--alpha", "0.05")
        assert proc.returncode == 2
        assert "--alpha" in proc.stderr

    def test_breslow_flag(self, tmp_path):
        # both deaths in the t=1 tie fall in the treatment arm, so the tie
        # methods produce genuinely different estimates
        data = tmp_path / "ties.csv"
        data.write_text("id,stratum,arm,time,event\n"
                        "1,0,1,1.0,1\n2,0,1,1.0,1\n3,0,0,1.0,0\n"
                        "4,0,0,2.0,1\n5,0,1,3.0,1\n6,0,0,4.0,0\n")
        efron = run_cli("fit", str(data), "--method", "cox-unstratified", "--json")
        breslow = run_cli("fit", str(data), "--method", "cox-unstratified",
                          "--ties", "breslow", "--json")
        assert efron.returncode == breslow.returncode == 0
        assert (json.loads(efron.stdout)["log_hr"]
                != json.loads(breslow.stdout)["log_hr"])


def _fit_text(record):
    """``fit``'s text lines for its ``--json`` record: the documented labels,
    each number as ``%.6g``."""
    g = "{:.6g}".format
    if "tie_method" not in record:
        return [f"method: {record['method']}",
                f"O-E: {g(record['observed_minus_expected'])}  "
                f"variance: {g(record['variance'])}",
                f"z: {g(record['z'])}  one-sided p: {g(record['p_one_sided'])}  "
                f"strata used: {record['strata_used']}"]
    lines = [f"method: {record['method']} ({record['tie_method']} ties)",
             f"HR estimate: {g(record['hr'])}",
             f"log-HR: {g(record['log_hr'])}  SE: {g(record['se'])}",
             f"Wald z: {g(record['wald_z'])}  one-sided p: {g(record['p_one_sided'])}"]
    if len(record["coefficients"]) > 1:
        lines.append("coefficients: " + "  ".join(
            f"{name}={g(value)}" for name, value in record["coefficients"].items()))
    return lines


class TestFitText:
    """``fit``'s text output is its ``--json`` record under the documented labels."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        # 12 strata, times on a half-month grid so that many are tied
        rng = random.Random(7)
        path = tmp_path_factory.mktemp("fit") / "tied.csv"
        path.write_text("id,stratum,arm,time,event\n" + "".join(
            f"{i},{i % 12},{i // 12 % 2},{rng.randint(1, 48) / 2},{int(rng.random() < 0.7)}\n"
            for i in range(480)))
        return path

    @pytest.mark.parametrize("method, ties", [
        ("logrank", None), ("logrank-stratified", None),
        *((m, t) for m in ("cox-unstratified", "cox-multivariate", "cox-stratified")
          for t in ("efron", "breslow"))])
    def test_text_renders_the_json_record(self, dataset, capsys, method, ties):
        from stratsurv.cli import main

        argv = ["fit", str(dataset), "--method", method,
                *([] if ties is None else ["--ties", ties])]
        assert main([*argv, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == "\n".join(_fit_text(record)) + "\n"
        assert ("coefficients:" in text) == (method == "cox-multivariate")


class TestSimulateCommand:
    def test_small_run_produces_files(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out), "--workers", "1")
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and (tmp_path / "results.csv.json").exists()
        assert "ok" in proc.stdout

    def test_single_replicate_power_is_zero_or_hundred(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("replicates = 6", "replicates = 1"))
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out), "--workers", "1")
        assert proc.returncode == 0
        row = out.read_text().splitlines()[1].split(",")
        header = out.read_text().splitlines()[0].split(",")
        for col in ("power_lr", "power_strat_lr", "power_mult_cox"):
            assert row[header.index(col)] in ("0.0", "100.0")

    def test_invalid_config_field_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[scenario]
kind = multiplicative_covariates
base_median = 16
hr_x1 = -1

[design]
true_hr = 0.5
events = 20
""")
        proc = run_cli("simulate", str(cfg), "-o", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "hr_x1" in proc.stderr

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_validation_error(self, tmp_path, workers):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out), "--workers", workers)
        assert proc.returncode == 2
        assert "workers must be at least 1" in proc.stderr
        assert not out.exists() and not (tmp_path / "results.csv.json").exists()

    def test_design_too_large_starts_no_replicate(self, tmp_path, monkeypatch, capsys):
        # true_hr = 0.999 derives D = 31,364,127 and N = 44,805,896 subjects,
        # which could never fit in memory; the study must not start at all.
        import stratsurv.simulate as sim
        from stratsurv.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate was started")

        monkeypatch.setattr(sim, "_replicate_range", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(CONFIG_TEXT.replace("true_hr = 0.5\nevents = 20",
                                           "true_hr = 0.999\nevents = auto"))
        out = tmp_path / "results.csv"
        assert main(["simulate", str(cfg), "-o", str(out), "--workers", "2"]) == 2
        # The config error names the file, the events line and the row's true_hr.
        assert (f"{cfg}:8: true_hr=0.999: sample_size 44805896 exceeds the maximum of 1000000"
                in capsys.readouterr().err)
        assert not out.exists() and not (tmp_path / "results.csv.json").exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_replicates_above_the_bound_start_no_replicate(self, tmp_path, monkeypatch,
                                                           capsys, source):
        import stratsurv.simulate as sim
        from stratsurv.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate was started")

        monkeypatch.setattr(sim, "_replicate_range", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        count = str(sim.MAX_REPLICATES + 1)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("replicates = 6", f"replicates = {count}")
                       if source == "config" else CONFIG_TEXT)
        out = tmp_path / "results.csv"
        flags = ["--replicates", count] if source == "flag" else []
        assert main(["simulate", str(cfg), "-o", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if source == "config":
            assert f"{cfg}:11: replicates must be at most 10000000, got {count}" in err
        else:
            assert f"replicates {count} exceeds the maximum of 10000000" in err
        assert not out.exists() and not (tmp_path / "results.csv.json").exists()

    def test_true_hr_out_of_range_names_its_line(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("true_hr = 0.5\nevents = 20",
                                           "true_hr = 0.5, 1.5\nevents = 20, 20"))
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out))
        assert proc.returncode == 2
        assert f"{cfg}:7: true_hr must be in (0, 1], got 1.5" in proc.stderr
        assert not out.exists() and not (tmp_path / "results.csv.json").exists()

    @pytest.mark.parametrize("entry", ["accrual_months = inf",
                                       "allocation = " + ":".join(["1"] * 11 + ["inf"])])
    def test_infinite_design_value_names_its_line(self, tmp_path, entry):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("events = 20", f"events = 20\n{entry}"))
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out))
        assert proc.returncode == 2
        key = entry.split(" = ")[0]
        assert f"{cfg}:9: {key} must be a finite number, got inf" in proc.stderr
        assert not out.exists()

    def test_negative_seed_names_the_flag(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "results.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out), "--seed", "-1")
        assert proc.returncode == 2
        assert "seed must be nonnegative" in proc.stderr
        assert "master_seed" not in proc.stderr
        assert not out.exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
        run_cli("simulate", str(cfg), "-o", str(out1), "--workers", "1")
        run_cli("simulate", str(cfg), "-o", str(out2), "--workers", "1")
        run_cli("simulate", str(cfg), "-o", str(out3), "--workers", "1", "--seed", "99")
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_worker_count_leaves_output_unchanged(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("replicates = 6", "replicates = 12"))
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_cli("simulate", str(cfg), "-o", str(a), "--workers", "1")
        run_cli("simulate", str(cfg), "-o", str(b), "--workers", "2")
        assert a.read_bytes() == b.read_bytes()

    def test_dump_roundtrip_matches_in_memory_analysis(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "results.csv"
        dumps = tmp_path / "dumps"
        proc = run_cli("simulate", str(cfg), "-o", str(out), "--workers", "1",
                       "--dump-datasets", str(dumps))
        assert proc.returncode == 0
        dumped = dumps / "row00_replicate0.csv"
        assert dumped.exists()

        from stratsurv.config import load_study_config
        from stratsurv.datagen import RngStream, generate_trial
        from stratsurv.inference import AnalysisSpec, Method, cox_fit
        from stratsurv.io import read_subject_records

        sim_cfg = load_study_config(str(cfg)).sim_configs()[0]
        in_memory = generate_trial(sim_cfg.design, sim_cfg.scenario,
                                   RngStream(sim_cfg.master_seed, 0))
        reloaded = read_subject_records(dumped)
        fa = cox_fit(in_memory, AnalysisSpec(Method.COX_STRATIFIED))
        fb = cox_fit(reloaded, AnalysisSpec(Method.COX_STRATIFIED))
        assert fa.treatment_log_hr == fb.treatment_log_hr
        assert fa.treatment_se == fb.treatment_se

    def test_json_flag_emits_rows(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        proc = run_cli("simulate", str(cfg), "-o", str(tmp_path / "r.csv"),
                       "--workers", "1", "--json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert rows[0]["events"] == 20 and "power" in rows[0]

    def test_global_flags_accepted_before_subcommand(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        proc = run_cli("--workers", "1", "--seed", "7", "simulate", str(cfg),
                       "-o", str(tmp_path / "r.csv"))
        assert proc.returncode == 0


TWO_ROW_CONFIG = CONFIG_TEXT.replace("true_hr = 0.5\nevents = 20",
                                     "true_hr = 0.5, 0.7\nevents = 20, 20")


class TestInterrupt:
    """A SIGINT during ``simulate`` is one ``error: interrupted`` line and exit 130."""

    @pytest.mark.parametrize("workers, to_group", [(1, False), (2, False), (2, True)],
                             ids=["w1-process", "w2-process", "w2-group"])
    def test_one_line_no_output_no_process_left(self, tmp_path, workers, to_group):
        # 24 rows of 3,000 replicates run for seconds; at 2 workers each row of
        # N = 86 is 8 chunks, its batches of 381 replicates
        rows = "true_hr = " + ", ".join(["0.6"] * 24) + "\nevents = " + ", ".join(["60"] * 24)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("true_hr = 0.5\nevents = 20", rows)
                       .replace("replicates = 6", "replicates = 3000"))
        out, dumps = tmp_path / "r.csv", tmp_path / "d"
        # a new session, so that the run's processes form a group of their own
        proc = subprocess.Popen(
            [sys.executable, "-m", "stratsurv", "simulate", str(cfg), "-o", str(out),
             "--workers", str(workers), "--dump-datasets", str(dumps)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not dumps.exists():  # made just before the study starts
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(1.0)  # well into the study, its pool started
            (os.killpg if to_group else os.kill)(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
        assert not out.exists() and not Path(f"{out}.json").exists()
        assert list(dumps.iterdir()) == []
        deadline = time.monotonic() + 10
        while True:  # until no process of the group is left, workers included
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the run is still running"
            time.sleep(0.05)


def simulate_in_process(config, out, *flags):
    """``simulate`` through ``cli.main``: the exit code, the CSV's lines and the sidecar."""
    from stratsurv.cli import main

    code = main(["simulate", str(config), "-o", str(out), *flags])
    return code, out.read_text().splitlines(), json.loads(Path(f"{out}.json").read_text())


class TestSimulateOutputPaths:
    """The CSV and sidecar records of a failed row and of a method with no usable fit."""

    def test_failed_row_is_recorded_and_exits_3(self, tmp_path, monkeypatch, capsys):
        import stratsurv.simulate as sim

        cfg = tmp_path / "study.cfg"
        cfg.write_text(TWO_ROW_CONFIG)
        _, clean_csv, clean_sidecar = simulate_in_process(cfg, tmp_path / "clean.csv",
                                                          "--workers", "1")
        real = sim.generate_trials

        def flaky(design, scenario, uniforms):
            if design.true_hr == 0.7:
                raise RuntimeError("boom")
            return real(design, scenario, uniforms)

        monkeypatch.setattr(sim, "generate_trials", flaky)
        capsys.readouterr()
        code, lines, sidecar = simulate_in_process(cfg, tmp_path / "failed.csv",
                                                   "--workers", "1")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ("true_hr=0.5 events=20: ok\n"
                                "true_hr=0.7 events=20: failed: RuntimeError: boom\n"
                                f"wrote {tmp_path / 'failed.csv'} and "
                                f"{tmp_path / 'failed.csv'}.json\n")
        assert captured.err == "1 of 2 rows failed\n"
        failed = lines[2].split(",")
        assert failed[:3] == ["0.7", "20", clean_csv[2].split(",")[2]]
        assert failed[3:-1] == ["nan"] * 17
        assert failed[-1] == "failed: RuntimeError: boom"
        assert sidecar["rows"][1]["error"] == "RuntimeError: boom"
        assert "methods" not in sidecar["rows"][1]
        assert lines[:2] == clean_csv[:2]
        assert sidecar["rows"][0] == clean_sidecar["rows"][0]

    def test_no_usable_fit_prints_nan_and_exits_0(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("events = 20", "events = 1\nevent_fraction = 1")
                       .replace("replicates = 6", "replicates = 5"))
        code, lines, sidecar = simulate_in_process(cfg, tmp_path / "r.csv", "--workers", "1")
        assert code == 0
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        for metric in ("bias", "se", "mse"):
            for method in ("unstrat", "mult", "strat"):
                assert row[f"{metric}_{method}"] == "nan"
        for method in ("unstrat", "mult", "strat"):
            assert row[f"replicates_excluded_{method}"] == "5"
        assert row["status"] == "ok"
        for method in sidecar["rows"][0]["methods"].values():
            assert method["avg_bias"] is method["avg_se"] is method["mse"] is None
            assert method["replicates_excluded"] == 5

    def test_every_csv_cell_is_its_sidecar_value_rounded(self, tmp_path, monkeypatch):
        # an ok row, a row whose generation fails and a row with no usable fit
        import stratsurv.simulate as sim

        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace(
            "true_hr = 0.5\nevents = 20",
            "true_hr = 0.5, 0.7, 0.6\nevents = 20, 20, 1\nevent_fraction = 1"))
        real = sim.generate_trials

        def flaky(design, scenario, uniforms):
            if design.true_hr == 0.7:
                raise RuntimeError("boom")
            return real(design, scenario, uniforms)

        monkeypatch.setattr(sim, "generate_trials", flaky)
        code, lines, sidecar = simulate_in_process(cfg, tmp_path / "r.csv", "--workers", "1")
        assert code == 3 and len(lines) == 4
        ok, failed, unusable = sidecar["rows"]
        assert failed["error"] == "RuntimeError: boom"
        assert all(m["avg_bias"] is None for m in unusable["methods"].values())

        def three(value):
            text = "nan" if value is None else f"{value:.3f}"
            return "0.000" if text == "-0.000" else text

        header = lines[0].split(",")
        for line, record in zip(lines[1:], sidecar["rows"]):
            want = {"true_hr": f"{record['true_hr']:g}", "events": str(record["events"]),
                    "n": str(record["n"]), "status": "ok"}
            if "error" in record:
                want.update((name, "nan") for name in header[3:-1])
                want["status"] = f"failed: {record['error']}"
            else:
                for short in ("unstrat", "mult", "strat"):
                    m = record["methods"][f"{short}_cox"]
                    want.update({f"bias_{short}": three(m["avg_bias"]),
                                 f"se_{short}": three(m["avg_se"]),
                                 f"mse_{short}": three(m["mse"]),
                                 f"replicates_excluded_{short}": str(m["replicates_excluded"])})
                want.update((f"power_{test}", f"{100 * p:.1f}")
                            for test, p in record["power"].items())
            assert sorted(want) == sorted(header)
            assert line.split(",") == [want[name] for name in header]


class TestWidthsAboveHostCpus:
    def test_widths_3_to_8_match_width_1(self, tmp_path, monkeypatch):
        # The host reports 8 usable CPUs, so every requested width from 3 to 8
        # runs as a real pool of that width, whatever the machine has.
        import multiprocessing

        import stratsurv.simulate as sim

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        real = concurrent.futures.ProcessPoolExecutor
        widths = []

        def counting(max_workers, **kwargs):
            widths.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("true_hr = 0.5\nevents = 20",
                                           "true_hr = 0.5, 0.6, 0.7\nevents = 20, 25, 30")
                       .replace("replicates = 6", "replicates = 12"))
        out = tmp_path / "w1.csv"
        assert simulate_in_process(cfg, out, "--workers", "1")[0] == 0
        reference = out.read_bytes(), json.loads(Path(f"{out}.json").read_text())["rows"]
        for w in range(3, 9):
            out = tmp_path / f"w{w}.csv"
            assert simulate_in_process(cfg, out, "--workers", str(w))[0] == 0
            assert out.read_bytes() == reference[0], w
            assert json.loads(Path(f"{out}.json").read_text())["rows"] == reference[1], w
            assert multiprocessing.active_children() == []
        assert widths == list(range(3, 9))


class TestUnreadableInputs:
    """A file that cannot be read, or an output path that cannot be written
    (a missing directory, a directory in place of a file, a dump directory
    that cannot be made), is one ``error:`` line naming the path and exit 2,
    with nothing written."""

    BODY = "".join(f"{i},{i % 12},{i % 2},{1 + i % 30}.5,{i % 2}\n" for i in range(2000))

    def _assert_rejected(self, proc, path, tmp_path, before):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("case", ["missing", "directory", "latin1_header", "latin1_body"])
    def test_fit_dataset(self, tmp_path, case):
        path = tmp_path / "data.csv"
        if case == "directory":
            path.mkdir()
        elif case != "missing":
            text = ("id,stratum,arm,time,event\n" + self.BODY).encode("utf-8")
            at = 30 if case == "latin1_header" else 20_000
            path.write_bytes(text[:at] + b"\xe9" + text[at:])
        before = sorted(tmp_path.iterdir())
        proc = run_cli("fit", str(path), "--method", "cox-stratified")
        self._assert_rejected(proc, path, tmp_path, before)

    @pytest.mark.parametrize("case", ["missing", "latin1"])
    def test_simulate_config(self, tmp_path, case):
        cfg = tmp_path / "study.cfg"
        if case == "latin1":
            cfg.write_bytes(CONFIG_TEXT.replace("seed = 42", "seed = 42  # caf\xe9")
                            .encode("latin-1"))
        before = sorted(tmp_path.iterdir())
        proc = run_cli("simulate", str(cfg), "-o", str(tmp_path / "r.csv"))
        self._assert_rejected(proc, cfg, tmp_path, before)

    def _assert_refused_before_the_study(self, tmp_path, monkeypatch, capsys, path, *flags):
        """``simulate`` with ``flags`` exits 2 naming ``path``, starts no study
        and leaves ``tmp_path`` as it was; returns the error line."""
        import stratsurv.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the study was started")

        monkeypatch.setattr(cli, "run_study", refuse)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        before = sorted(tmp_path.iterdir())
        assert cli.main(["simulate", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert sorted(tmp_path.iterdir()) == before
        return err

    @pytest.mark.parametrize("flag", ["-o", "--sidecar"])
    def test_simulate_output_directory_checked_before_the_study(self, tmp_path, monkeypatch,
                                                                capsys, flag):
        missing = tmp_path / "nonexistent" / "dir" / "x.csv"
        out = missing if flag == "-o" else tmp_path / "r.csv"
        self._assert_refused_before_the_study(tmp_path, monkeypatch, capsys, missing,
                                              "-o", str(out), flag, str(missing))

    @pytest.mark.parametrize("flag", ["-o", "--sidecar", "--dump-datasets"])
    def test_simulate_empty_output_path_refused_before_the_study(self, tmp_path, monkeypatch,
                                                                 capsys, flag):
        flags = ("-o", "") if flag == "-o" else ("-o", str(tmp_path / "r.csv"), flag, "")
        err = self._assert_refused_before_the_study(tmp_path, monkeypatch, capsys, flag, *flags)
        kind = "directory" if flag == "--dump-datasets" else "file"
        assert f"{flag} must name a {kind}, not an empty path" in err

    @pytest.mark.parametrize("case", ["same_text", "through_a_link", "through_a_hard_link",
                                      "a_dumped_dataset"])
    def test_simulate_outputs_on_one_path_refused_before_the_study(self, tmp_path, monkeypatch,
                                                                   capsys, case):
        out = tmp_path / "r.csv"
        if case == "same_text":
            other, flags = out, ("--sidecar", str(out))
        elif case == "through_a_link":
            (tmp_path / "link").symlink_to(tmp_path)
            other = tmp_path / "link" / "r.csv"
            flags = ("--sidecar", str(other))
        elif case == "through_a_hard_link":  # two names of one existing file
            out.touch()
            other = tmp_path / "b.json"
            other.hardlink_to(out)
            flags = ("--sidecar", str(other))
        else:  # the CSV would be overwritten by the first row's dataset
            (tmp_path / "d").mkdir()
            out = other = tmp_path / "d" / "row00_replicate0.csv"
            flags = ("--dump-datasets", str(tmp_path / "d"))
        err = self._assert_refused_before_the_study(tmp_path, monkeypatch, capsys, out,
                                                    "-o", str(out), *flags)
        assert str(other) in err and "same file" in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_simulate_outputs_sharing_one_pipe_are_both_written(self, tmp_path):
        # stdout and stderr are one pipe: writes to it append, so neither
        # output can overwrite the other and both are written
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        proc = subprocess.run([sys.executable, "-m", "stratsurv", "simulate", str(cfg),
                               "--replicates", "2", "-o", "/dev/stdout",
                               "--sidecar", "/dev/stderr"],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert proc.returncode == 0, proc.stdout
        header = proc.stdout.splitlines()[0].split(",")
        assert header[:3] == ["true_hr", "events", "n"]
        sidecar, _ = json.JSONDecoder().raw_decode(proc.stdout, proc.stdout.index("\n{") + 1)
        assert sidecar["rows"][0]["replicates"] == 2

    @pytest.mark.parametrize("flag", ["-o", "--sidecar", "--dump-datasets"])
    def test_simulate_output_that_is_a_directory_checked_before_the_study(
            self, tmp_path, monkeypatch, capsys, flag):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        out = directory if flag == "-o" else tmp_path / "r.csv"
        if flag == "--dump-datasets":  # the first row's dataset name is taken
            directory = directory / "row00_replicate0.csv"
            directory.mkdir()
            flags = ("--dump-datasets", str(directory.parent))
        else:
            flags = (flag, str(directory))
        inside = sorted((tmp_path / "a_directory").rglob("*"))
        err = self._assert_refused_before_the_study(tmp_path, monkeypatch, capsys, directory,
                                                    "-o", str(out), *flags)
        assert err == f"error: cannot write {directory}: it is a directory\n"
        assert sorted((tmp_path / "a_directory").rglob("*")) == inside

    @pytest.mark.parametrize("case", ["under_a_file", "a_file"])
    def test_simulate_dump_directory_created_before_the_study(self, tmp_path, monkeypatch,
                                                              capsys, case):
        a_file = tmp_path / "notes.txt"
        a_file.write_text("a regular file\n")
        dump = a_file / "sub" if case == "under_a_file" else a_file
        self._assert_refused_before_the_study(tmp_path, monkeypatch, capsys, dump,
                                              "-o", str(tmp_path / "r.csv"),
                                              "--dump-datasets", str(dump))
        assert a_file.read_text() == "a regular file\n"


class TestFailedWrites:
    """An OSError while writing an output after the study is one ``error:``
    line naming the file being written, and exit 3."""

    @pytest.mark.parametrize("writer, name", [
        ("write_results_csv", "r.csv"), ("write_sidecar_json", "r.csv.json"),
        ("write_subject_records", "d/row00_replicate0.csv")])
    def test_write_error_names_the_file(self, tmp_path, monkeypatch, capsys, writer, name):
        import errno

        import stratsurv.cli as cli

        def no_space(*args):  # as at close: an errno and no filename
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, writer, no_space)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        assert cli.main(["simulate", str(cfg), "--replicates", "2", "-o",
                         str(tmp_path / "r.csv"), "--dump-datasets", str(tmp_path / "d")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {tmp_path / name}: "
                                f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flag", ["-o", "--sidecar"])
    def test_full_device(self, tmp_path, flag):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT)
        proc = run_cli("simulate", str(cfg), "--replicates", "2",
                       "-o", "/dev/full" if flag == "-o" else str(tmp_path / "r.csv"),
                       *(["--sidecar", "/dev/full"] if flag == "--sidecar" else []))
        assert proc.returncode == 3
        assert proc.stderr == "error: cannot write /dev/full: No space left on device\n"


def _has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestFreedMemory:
    """The command keeps the memory it frees mapped, where the C library allows."""

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_second_simulate_reuses_the_first_ones_memory(self, tmp_path):
        # The same N = 95 study twice in one process: the second run's arrays
        # come from memory the first one freed, so it takes next to no page
        # faults (about 2,000 when freed memory goes back to the kernel).
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_TEXT.replace("events = 20", "events = 66\nevent_fraction = 0.70")
                       .replace("replicates = 6", "replicates = 250"))
        code = f"""
import contextlib, io, resource
from stratsurv.cli import main
argv = ["simulate", {str(cfg)!r}, "-o", {str(tmp_path / "r.csv")!r}, "--workers", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "r.csv.json").read_text())["rows"][0]["replicates"] == 250
        assert int(proc.stdout) < 200

    @pytest.mark.parametrize("library", ["no_mallopt", "no_library"])
    def test_c_library_without_mallopt_is_left_alone(self, monkeypatch, capsys, library):
        import ctypes

        import stratsurv.cli as cli

        def cdll(name, *args, **kwargs):
            if library == "no_library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli.main(["design", "--hr", "0.7"]) == 0
        assert "events (D):" in capsys.readouterr().out
