"""Tests for the scripts under ``tools/``: ``engine_stages.py`` runs end to end,
and the comparison helpers of ``same_outputs.py`` keep their rules."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stratsurv.simulate import STAGES

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def engine_stages():
    return _tool("engine_stages")


@pytest.fixture(scope="module")
def same_outputs():
    return _tool("same_outputs")


class TestEngineStages:
    def test_one_line_per_stage_and_other(self, engine_stages, capsys):
        engine_stages.main(["--runs", "1"])
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[2:]]
        assert [row[0] for row in rows] == [*STAGES, "other"]
        for row in rows:  # us per replicate at N = 95 and at N = 543
            assert len(row) == 3 and all(float(cell) >= 0 for cell in row[1:])

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_fewer_than_one_run_refused(self, engine_stages, capsys, runs):
        with pytest.raises(SystemExit) as exit_:
            engine_stages.main(["--runs", runs])
        assert exit_.value.code == 2
        assert "--runs: must be at least 1" in capsys.readouterr().err


class TestSameOutputs:
    def test_same_bits_nan_equals_nan(self, same_outputs):
        assert same_outputs.same_bits(np.array([np.nan, 1.0]), np.array([-np.nan, 1.0]))
        assert not same_outputs.same_bits(np.array([0.0]), np.array([-0.0]))

    def test_same_bits_refuses_a_dtype_change(self, same_outputs):
        assert not same_outputs.same_bits(np.array([1.0]), np.array([1.0], dtype=np.float32))
        assert not same_outputs.same_bits(np.array([1]), np.array([1.0]))

    def test_key_on_one_side_only_reads_inf(self, same_outputs):
        assert same_outputs.largest_difference({"a": 1.0}, {"a": 1.0, "b": 2.0}) == (
            "largest relative difference inf at b: absent vs 2.0")

    def test_p_value_compared_on_the_log_scale(self, same_outputs):
        # |log 1e-10 - log 1e-11| / |log 1e-11| = 1 / 11, against 0.9 unlogged
        p = same_outputs.largest_difference({"fit.p_one_sided": 1e-10}, {"fit.p_one_sided": 1e-11})
        z = same_outputs.largest_difference({"fit.z": 1e-10}, {"fit.z": 1e-11})
        assert p.startswith("largest relative difference 0.0909 at fit.p_one_sided:")
        assert z.startswith("largest relative difference 0.9 at fit.z:")

    def test_key_names_of_added_keys(self, same_outputs):
        def row(mcse):
            methods = {key: {"mse": 0.1, **({"mse_mcse": 0.01} if mcse else {})}
                       for key in ("mult_cox", "strat_cox")}
            return {"methods": methods, "power": {"lr": 0.8},
                    **({"power_mcse": {"lr": 0.004}} if mcse else {})}

        old, new = ({"rows": [row(mcse), row(mcse)]} for mcse in (False, True))
        old, new = same_outputs.json_numbers(old), same_outputs.json_numbers(new)
        assert same_outputs.key_names(new.keys() - old.keys(), old) == [
            "rows[*].methods.*.mse_mcse", "rows[*].power_mcse"]
