"""Smoke tests: every per-table job runs end-to-end at tiny scale and
produces plausibly-shaped rows."""
import importlib.util
import os
import sys

import numpy as np
import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")


def _load(name):
    path = os.path.join(JOBS_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


SCALE = 0.02  # ~2k tuples per relation


class TestSimulatorJobs:
    def test_table01(self):
        lines = _load("table01_datasets").run(scale=0.01)
        assert len(lines) >= 20  # one per dataset/band-width combo
        assert all("output" in l for l in lines)

    @pytest.mark.parametrize("part", ["a", "b", "c"])
    def test_table02(self, part):
        lines = _load("table02_bandwidth").run(part, scale=SCALE, w=4)
        # 3-4 band widths x 4 methods
        assert len(lines) >= 12
        assert any("RecPart-S" in l for l in lines)

    def test_table03(self):
        lines = _load("table03_skew").run(scale=SCALE, w=4, zs=(0.5, 1.5))
        assert len(lines) == 8

    @pytest.mark.parametrize("part", ["a", "c", "d"])
    def test_table04(self, part):
        lines = _load("table04_scalability").run(part, scale=SCALE)
        assert len(lines) >= 12

    def test_table05(self):
        lines = _load("table05_gridsize").run(scale=SCALE, w=4)
        assert sum("Grid(" in l for l in lines) == 7
        assert any("Grid*" in l for l in lines)

    def test_table06(self):
        lines = _load("table06_gridstar").run(scale=SCALE, w=4)
        assert len(lines) >= 6

    def test_table07(self):
        lines = _load("table07_iejoin").run(scale=SCALE, w=4)
        assert sum("IEJoin" in l for l in lines) >= 8

    def test_table08(self):
        lines = _load("table08_beta_ratio").run(scale=SCALE, w=4)
        assert sum("RecPart" in l for l in lines) >= 5
        assert all("Lm(4Im+Om)=" in l for l in lines)

    def test_table09(self):
        lines = _load("table09_symmetric").run(scale=SCALE, w=4)
        assert len(lines) == 16  # 8 cases x 2 methods

    def test_table15(self):
        lines = _load("table15_dimensionality").run(scale=SCALE, w=4, dims=(1, 2))
        assert len(lines) == 8

    def test_table16(self):
        lines = _load("table16_ptf").run(scale=0.005, w=4)
        assert len(lines) == 8


class TestSparkJob:
    def test_table12(self, spark):
        lines = _load("table12_model_accuracy").run(scale=0.01, w=4, spark=spark)
        assert any("fitted model" in l for l in lines)
        assert any("summary" in l for l in lines)
        assert sum("predicted=" in l for l in lines) >= 6

    def test_table12_max_factor_is_symmetric(self):
        factor = _load("table12_model_accuracy").max_error_factor
        assert factor(np.array([0.078, -0.659])) == pytest.approx(1 / 0.341)
        assert factor(np.array([1.0, -0.5])) == pytest.approx(2.0)
        assert factor(np.array([0.0])) == 1.0


class TestEmit:
    def test_emit_writes_paper_reference(self, tmp_path):
        from repro.harness.jobio import emit

        text = emit("2a", "t", ["| x | y | 1 | 1 | 1 | 1 | 1 | ok |"], out_dir=str(tmp_path))
        assert "Paper Table 2a" in text
        assert (tmp_path / "table2a.md").exists()
