"""Tests for configuration parsing and dataset / result file round trips."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stratsurv.config import StudyConfig, load_study_config, parse_study_config
from stratsurv.datagen import RngStream, generate_trial
from stratsurv.errors import ConfigError, DataFormatError, InvalidParameterError
from stratsurv.inference import AnalysisSpec, Method, cox_fit, logrank
from stratsurv.io import (
    RESULT_COLUMNS,
    read_subject_records,
    write_results_csv,
    write_sidecar_json,
    write_subject_records,
)
from stratsurv.simulate import MAX_REPLICATES, run_study
from stratsurv.trial import ScenarioKind, ScenarioSpec, TrialDesign

MINIMAL = """
[scenario]
kind = no_prognostic
base_median = 16

[design]
true_hr = 0.5, 0.75
events = 66, 380
"""


class TestConfigParsing:
    def test_minimal_with_defaults(self):
        study = parse_study_config(MINIMAL)
        assert study.true_hrs == (0.5, 0.75)
        assert study.events == (66, 380)
        assert study.accrual_months == 14.0
        assert study.replicates == 10000
        assert study.tie_method == "efron"
        assert study.allocation_weights == (1.0,) * 12

    def test_events_auto_uses_formula(self):
        text = MINIMAL.replace("events = 66, 380", "events = auto")
        study = parse_study_config(text)
        assert study.events == (66, 380)

    def test_unknown_key_rejected_with_line(self):
        text = MINIMAL + "\n[run]\nbogus = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_study_config(text)
        assert "bogus" in str(err.value)
        assert err.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_study_config(MINIMAL + "\n[extras]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_study_config(MINIMAL + "\n[run]\nseed = 1\nseed = 2\n")

    def test_negative_hr_names_field_and_line(self):
        text = """
[scenario]
kind = multiplicative_covariates
base_median = 16
hr_x1 = -1

[design]
true_hr = 0.5
events = 66
"""
        with pytest.raises(ConfigError) as err:
            parse_study_config(text)
        assert "hr_x1" in str(err.value)
        assert err.value.line == 5

    def test_events_length_mismatch(self):
        with pytest.raises(ConfigError, match="one entry per true_hr"):
            parse_study_config(MINIMAL.replace("events = 66, 380", "events = 66"))

    def test_allocation_ratio_parsed(self):
        study = parse_study_config(MINIMAL.replace(
            "events = 66, 380",
            "events = 66, 380\nallocation = 1:1:1:1:1:1:7:7:7:7:7:7"))
        assert study.allocation_weights == (1.0,) * 6 + (7.0,) * 6

    def test_bad_allocation_rejected(self):
        with pytest.raises(ConfigError, match="allocation"):
            parse_study_config(MINIMAL.replace(
                "events = 66, 380", "events = 66, 380\nallocation = 1:2:3"))

    def test_stratum_medians_scenario(self):
        text = """
[scenario]
kind = stratum_baselines
stratum_medians = 16, 16, 16, 16, 16, 16, 50, 50, 50, 50, 50, 50

[design]
true_hr = 0.5
events = 66
"""
        study = parse_study_config(text)
        assert study.scenario.kind is ScenarioKind.STRATUM_BASELINES
        assert study.scenario.stratum_medians == (16.0,) * 6 + (50.0,) * 6

    @pytest.mark.parametrize("medians,message", [
        ("16, " * 10 + "16", "stratum_medians must hold exactly 12 values"),
        ("16, " * 11 + "0", "stratum_medians must be positive, got 0"),
        ("16, " * 11 + "-5", "stratum_medians must be positive, got -5"),
        ("16, " * 11 + "inf", "stratum_medians must be a finite number, got inf"),
    ])
    def test_bad_stratum_medians_name_their_line(self, medians, message):
        # the kind is on line 3 and stratum_medians on line 5
        text = f"""
[scenario]
kind = stratum_baselines
# twelve medians, by stratum index
stratum_medians = {medians}

[design]
true_hr = 0.5
events = 66
"""
        with pytest.raises(ConfigError) as err:
            parse_study_config(text, "s.cfg")
        assert str(err.value) == f"s.cfg:5: {message}"

    @pytest.mark.parametrize("text,message", [
        pytest.param(MINIMAL + "\n[run]\nseed 3\n",
                     "11: expected key = value, got 'seed 3'", id="no_equals"),
        pytest.param("seed = 3\n" + MINIMAL, "1: key outside of any [section]", id="no_section"),
        # ScenarioSpec's cross-field errors name the kind's line
        pytest.param(MINIMAL.replace("no_prognostic", "multiplicative_covariates"),
                     "3: hr_x1 must be a positive finite number, got None", id="missing_hr_x1"),
        pytest.param(MINIMAL.replace("base_median = 16", "base_median = 16\nhr_x1 = 2"),
                     "3: covariate hazard ratios are not used by no_prognostic",
                     id="unused_hr_x1"),
        pytest.param(MINIMAL.replace("base_median = 16",
                                     "base_median = 16\nstratum_medians = " + "16, " * 11 + "16"),
                     "3: stratum_medians is not used by no_prognostic",
                     id="unused_stratum_medians"),
        pytest.param(MINIMAL.replace("0.5, 0.75\nevents = 66, 380", "0.5, 1\nevents = auto"),
                     "8: cannot derive events for true_hr=1.0: hr must differ from 1 "
                     "(no effect means no finite event target)", id="auto_events_at_hr_1"),
        pytest.param(MINIMAL.replace("base_median = 16", "base_median = abc"),
                     "4: base_median must be a number, got 'abc'", id="not_a_number"),
        pytest.param(MINIMAL + "\n[run]\nseed = 1.5\n",
                     "11: seed must be an integer, got '1.5'", id="not_an_integer"),
        pytest.param(MINIMAL.replace("true_hr = 0.5, 0.75", "true_hr = ,"),
                     "7: true_hr must hold at least one number", id="empty_list"),
        pytest.param(MINIMAL + "allocation = " + "0:" * 11 + "0\n",
                     "9: allocation weights must be nonnegative, not all zero", id="zero_weights"),
        pytest.param(MINIMAL + "\n[run]\ntie_method = exact\n",
                     "11: tie_method must be one of ('efron', 'breslow'), got 'exact'",
                     id="not_a_choice"),
    ])
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_study_config(text, "s.cfg")
        assert str(err.value) == f"s.cfg:{message}"

    def test_empty_hazard_ratio_list_refused(self):
        with pytest.raises(InvalidParameterError, match="true_hr list must not be empty"):
            StudyConfig(scenario=ScenarioSpec.no_prognostic(), true_hrs=(), events=())

    def test_replicates_bounded(self):
        study = parse_study_config(MINIMAL + f"\n[run]\nreplicates = {MAX_REPLICATES}\n")
        assert study.replicates == MAX_REPLICATES == 10_000_000
        with pytest.raises(ConfigError) as err:
            parse_study_config(MINIMAL + f"\n[run]\nreplicates = {MAX_REPLICATES + 1}\n")
        assert err.value.line == 11
        assert "replicates must be at most 10000000, got 10000001" in str(err.value)
        # a library caller's override is refused when the rows are built
        with pytest.raises(InvalidParameterError, match="exceeds the maximum of 10000000"):
            parse_study_config(MINIMAL).with_overrides(replicates=10**12).sim_configs()

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_study_config("[design]\ntrue_hr = 0.5\nevents = 66\n")
        with pytest.raises(ConfigError, match="design"):
            parse_study_config("[scenario]\nkind = no_prognostic\nbase_median = 16\n")

    def test_comments_and_blank_lines_ignored(self):
        study = parse_study_config("# leading comment\n" + MINIMAL + "\n# trailing\n")
        assert study.true_hrs == (0.5, 0.75)


class TestStudyConfigMapping:
    def test_round_trip(self):
        study = parse_study_config(MINIMAL)
        assert StudyConfig.from_mapping(study.to_mapping()) == study

    def test_round_trip_through_json(self):
        study = parse_study_config(MINIMAL.replace(
            "kind = no_prognostic\nbase_median = 16",
            "kind = multiplicative_covariates\nbase_median = 16\nhr_x1 = 0.5\n"
            "hr_x2_level1 = 0.75\nhr_x2_level2 = 1.25\nhr_x3 = 0.75"))
        echo = json.loads(json.dumps(study.to_mapping()))
        assert StudyConfig.from_mapping(echo) == study

    def test_sim_configs_propagate_design(self):
        study = parse_study_config(MINIMAL)
        cfgs = study.sim_configs()
        assert len(cfgs) == 2
        assert cfgs[0].design.sample_size == 95
        assert cfgs[1].design.sample_size == 543
        assert cfgs[0].master_seed == study.seed
        assert cfgs[1].master_seed == study.seed + 1

    def test_bundled_configs_parse(self):
        import glob
        paths = sorted(glob.glob("configs/*.cfg"))
        assert len(paths) == 8
        for path in paths:
            study = load_study_config(path)
            assert study.replicates == 10000
            echo = json.loads(json.dumps(study.to_mapping()))
            assert StudyConfig.from_mapping(echo) == study

    @pytest.mark.parametrize("section,key,value,message", [
        ("design", "accural_months", 99, "unknown key 'accural_months' in [design]"),
        ("scenario", "hr_x4", 0.5, "unknown key 'hr_x4' in [scenario]"),
        ("design", "randomization_prob", 1.5, "randomization_prob must be in (0, 1)"),
        ("design", "events", [66, 31364127],
         "true_hr=0.75: sample_size 44805896 exceeds the maximum of 1000000"),
        ("design", "true_hr", [0.5, 1.5], "true_hr must be in (0, 1], got 1.5"),
        ("design", "accrual_months", float("inf"),
         "accrual_months must be a finite number, got inf"),
        ("design", "allocation", [1.0] * 11 + [float("inf")],
         "allocation must be a finite number, got inf"),
        ("scenario", "stratum_medians", [16] * 11,
         "stratum_medians must hold exactly 12 values"),
        ("scenario", "stratum_medians", [16] * 11 + [0], "stratum_medians must be positive, got 0"),
        ("run", "replicates", 10**7 + 1, "replicates must be at most 10000000, got 10000001"),
        ("design", "true_hr", 0.5, "true_hr must be a list, got 0.5"),
        ("extras", "x", 1, "unknown section [extras]"),
        # a JSON integer beyond the float range; a file's digits read as inf
        pytest.param("scenario", "base_median", 10**400,
                     "base_median must be a finite number, got 1000", id="base_median-10**400"),
        pytest.param("design", "allocation", [1] * 11 + [10**400],
                     "allocation must be a finite number", id="allocation-10**400"),
    ])
    def test_replay_rejects_what_a_config_file_rejects(self, section, key, value, message):
        echo = json.loads(json.dumps(parse_study_config(MINIMAL).to_mapping()))
        echo.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            StudyConfig.from_mapping(echo)
        assert message in str(err.value)
        assert err.value.line is None

    @pytest.mark.parametrize("section,value", [("scenario", 5), ("design", [1]),
                                               (None, None), (None, [1])])
    def test_replay_rejects_a_section_that_is_not_an_object(self, section, value):
        echo = json.loads(json.dumps(parse_study_config(MINIMAL).to_mapping()))
        if section is None:  # the whole echo
            echo, what = value, "the config echo"
        else:
            echo[section], what = value, rf"\[{section}\]"
        with pytest.raises(ConfigError, match=rf"{what} must be a JSON object"):
            StudyConfig.from_mapping(echo)


class TestDatasetRoundTrip:
    def _trial(self):
        design = TrialDesign.from_event_target(0.5, 40)
        return generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                              RngStream(1234, 0))

    def test_exported_dataset_reimports_identically(self, tmp_path):
        ds = self._trial()
        path = tmp_path / "trial.csv"
        write_subject_records(path, ds)
        back = read_subject_records(path)
        # identical analysis results, bit for bit
        for stratified in (False, True):
            a = logrank(ds, stratified)
            b = logrank(back, stratified)
            assert a.z == b.z and a.variance == b.variance
        for method in (Method.COX_UNSTRATIFIED, Method.COX_MULTIVARIATE,
                       Method.COX_STRATIFIED):
            fa = cox_fit(ds, AnalysisSpec(method))
            fb = cox_fit(back, AnalysisSpec(method))
            assert np.array_equal(fa.beta, fb.beta)
            assert fa.treatment_se == fb.treatment_se

    def test_zero_followup_rows_dropped(self, tmp_path):
        ds = self._trial()
        path = tmp_path / "trial.csv"
        written = write_subject_records(path, ds)
        assert written == int((ds.observed_time > 0).sum())
        back = read_subject_records(path)
        assert back.n_subjects == written
        assert np.all(back.observed_time > 0)

    def test_factor_triple_header(self, tmp_path):
        path = tmp_path / "triple.csv"
        path.write_text("id,x1,x2,x3,arm,time,event\n"
                        "1,0,2,1,1,3.5,1\n"
                        "2,1,0,0,0,2.0,0\n")
        ds = read_subject_records(path)
        assert list(ds.stratum_index) == [0 * 6 + 2 * 2 + 1, 6]

    @pytest.mark.parametrize("row,message", [
        ("1,0,1,-2.0,1", "strictly positive"),
        ("1,0,3,2.0,1", "arm"),
        ("1,0,1,2.0,2", "event"),
        ("1,14,1,2.0,1", "stratum"),
        ("x,0,1,2.0,1", "integer"),
        ("1,0,1,abc,1", "number"),
        ("99999999999999999999999,0,1,2.5,1", "id must fit a signed 64-bit integer"),
    ])
    def test_malformed_rows_name_row_number(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,stratum,arm,time,event\n" + row + "\n")
        with pytest.raises(DataFormatError) as err:
            read_subject_records(path)
        assert message in str(err.value)
        assert err.value.row == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,arm,time\n1,1,2.0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_subject_records(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_subject_records(path)


class TestResultFiles:
    def _rows(self):
        study = parse_study_config(MINIMAL).with_overrides(replicates=3)
        return study, run_study(study.sim_configs(), workers=1)

    def test_csv_columns_and_formatting(self, tmp_path):
        study, rows = self._rows()
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == ",".join(RESULT_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "0.5" and first[1] == "66" and first[2] == "95"
        power_lr = first[RESULT_COLUMNS.index("power_lr")]
        assert power_lr.endswith(".0") or "." in power_lr
        assert first[-1] == "ok"

    def test_negative_zero_printed_without_sign(self, tmp_path):
        study, rows = self._rows()
        metrics = rows[0].metrics
        methods = dict(metrics.methods)
        methods["mult_cox"] = dataclasses.replace(methods["mult_cox"], avg_bias=-0.0004)
        methods["strat_cox"] = dataclasses.replace(methods["strat_cox"], avg_bias=-0.0006)
        row = dataclasses.replace(rows[0], metrics=dataclasses.replace(metrics, methods=methods))
        path = tmp_path / "results.csv"
        write_results_csv(path, [row])
        cells = path.read_text().split("\n")[1].split(",")
        assert cells[RESULT_COLUMNS.index("bias_mult")] == "0.000"
        assert cells[RESULT_COLUMNS.index("bias_strat")] == "-0.001"

    def test_readme_lists_every_column(self):
        # the first table of README's "Result files" section, one column a line
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Result files\n", 1)[1].split("\n### ", 1)[0]
        table = section.split("\n| column |", 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert tuple(names) == RESULT_COLUMNS

    def test_csv_uses_lf_only(self, tmp_path):
        study, rows = self._rows()
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        assert b"\r" not in path.read_bytes()

    def test_sidecar_echo_rebuilds_config(self, tmp_path):
        study, rows = self._rows()
        study = study.with_overrides(workers=3)
        path = tmp_path / "results.json"
        write_sidecar_json(path, study.to_mapping(), rows)
        payload = json.loads(path.read_text())
        rebuilt = StudyConfig.from_mapping(payload["config"])
        assert rebuilt == study
        assert payload["workers"] == payload["config"]["run"]["workers"] == 3
        assert len(payload["rows"]) == 2
        assert "power" in payload["rows"][0]
        assert payload["rows"][0]["methods"]["unstrat_cox"]["avg_se"] is not None

    def test_sidecar_rerun_reproduces_csv(self, tmp_path):
        study, rows = self._rows()
        csv1 = tmp_path / "a.csv"
        write_results_csv(csv1, rows)
        sidecar = tmp_path / "a.json"
        write_sidecar_json(sidecar, study.to_mapping(), rows)
        rebuilt = StudyConfig.from_mapping(json.loads(sidecar.read_text())["config"])
        rows2 = run_study(rebuilt.sim_configs(), workers=1)
        csv2 = tmp_path / "b.csv"
        write_results_csv(csv2, rows2)
        assert csv1.read_bytes() == csv2.read_bytes()
