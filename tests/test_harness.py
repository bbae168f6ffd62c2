"""Tests for the experiment harness (runner, tables, experiments)."""
import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.harness import experiments as X
from repro.harness.runner import MethodRun, build_partitioning, run_method, run_suite
from repro.harness.tables import HEADER, PAPER, format_rows

from tests.helpers import assert_partitioning_correct, brute_force_count


@pytest.fixture(scope="module")
def small():
    return X.pareto_inputs(1500, 1.5, 2)


class TestRunMethod:
    def test_returns_metrics_and_times(self, small):
        S, T = small
        r = run_method("recpart_s", S, T, [30.0, 30.0], 4, seed=0)
        assert r.opt_time > 0
        assert r.join_time_est > 0
        assert r.eval.I >= len(S) + len(T)
        assert r.total_time == pytest.approx(r.opt_time + r.join_time_est)

    def test_unknown_method(self, small):
        S, T = small
        with pytest.raises(ValueError):
            run_method("nope", S, T, [1.0, 1.0], 4)

    @pytest.mark.parametrize(
        "eps", [[-1.0, 30.0], [np.nan, 30.0], [30.0], [30.0, 30.0, 30.0], 30.0]
    )
    def test_bad_eps_raises(self, small, eps):
        S, T = small
        with pytest.raises(ValueError, match="band width"):
            run_method("recpart_s", S, T, eps, 4)

    @pytest.mark.parametrize(
        "method",
        ["recpart", "recpart_s", "csio", "one_bucket", "grid_eps", "grid_star", "iejoin:100"],
    )
    @pytest.mark.parametrize(
        "side, bad, match",
        [
            ("S", "empty", "relation S is empty"),
            ("T", "empty", "relation T is empty"),
            ("S", np.nan, "relation S has a NaN or infinite coordinate in row 7"),
            ("T", np.inf, "relation T has a NaN or infinite coordinate in row 7"),
            ("S", "3-D", "relation S must be a 1-D or 2-D array, got 3 dimensions"),
            ("T", "scalar", "relation T must be a 1-D or 2-D array, got 0 dimensions"),
        ],
    )
    def test_bad_relation_raises(self, small, method, side, bad, match):
        """Empty relations raised ZeroDivisionError in four methods; a NaN
        T-row was accepted silently by three; a 3-D relation was checked
        row by row of its flattened mask, and a scalar raised AxisError."""
        rel = {"S": small[0].copy(), "T": small[1].copy()}
        if bad == "empty":
            rel[side] = rel[side][:0]
        elif bad == "3-D":
            rel[side] = rel[side][:, :, None]
        elif bad == "scalar":
            rel[side] = rel[side][0, 0]
        else:
            rel[side][7, 1] = bad
        eps = np.array([30.0, 30.0])
        with pytest.raises(ValueError, match=match):
            run_method(method, rel["S"], rel["T"], eps, 4)
        with pytest.raises(ValueError, match=match):
            build_partitioning(method, rel["S"], rel["T"], eps, 4, CostModel())

    @pytest.mark.parametrize(
        "method",
        ["recpart", "recpart_s", "csio", "one_bucket", "grid_eps", "grid_star", "iejoin:10"],
    )
    def test_one_dimensional_relations(self, method):
        """A 1-D relation is one join attribute, whatever its length."""
        rng = np.random.default_rng(0)
        S, T = rng.random(50), rng.random(60)
        r = run_method(method, S, T, [0.1], 4, seed=0)
        part, _, _ = build_partitioning(method, S, T, np.array([0.1]), 4, CostModel())
        assert r.eval.O_total == brute_force_count(S[:, None], T[:, None], [0.1])
        assert_partitioning_correct(part, S[:, None], T[:, None], [0.1])

    def test_iejoin_param_parsing(self, small):
        S, T = small
        r = run_method("iejoin:100", S, T, [30.0, 30.0], 4, seed=0)
        assert r.pretty == "IEJoin(100)" or "100" in r.pretty

    def test_grid_analytic_trigger(self):
        # 8 dims with wide bands -> expansion explodes -> analytic path
        S, T = X.pareto_inputs(8000, 1.5, 8)
        r = run_method(
            "grid_eps", S, T, np.full(8, 400.0), 8, seed=0, o_total_hint=100
        )
        assert r.extra.get("analytic") is True
        assert r.eval.I > 50 * len(T)  # ~3^8-ish duplication

    def test_grid_exact_when_small(self, small):
        S, T = small
        r = run_method("grid_eps", S, T, [30.0, 30.0], 4, seed=0)
        assert r.extra.get("analytic") is None
        assert r.opt_time == 0.0  # Grid-eps has no optimization cost


class TestRunSuite:
    def test_grid_none_at_eps0(self, small):
        S, T = small
        runs = run_suite(["recpart_s", "grid_eps"], S, T, [0.0, 0.0], 4)
        assert runs["grid_eps"] is None
        assert runs["recpart_s"] is not None

    def test_order_preserved(self, small):
        S, T = small
        methods = ["one_bucket", "recpart_s"]
        runs = run_suite(methods, S, T, [30.0, 30.0], 4)
        assert list(runs) == methods

    def test_shared_samples_consistent_o_total(self, small):
        S, T = small
        runs = run_suite(["recpart_s", "one_bucket"], S, T, [30.0, 30.0], 4)
        assert runs["recpart_s"].eval.O_total == runs["one_bucket"].eval.O_total


class TestTables:
    def test_format_rows_shape(self, small):
        S, T = small
        runs = run_suite(["recpart_s", "one_bucket"], S, T, [30.0, 30.0], 4)
        rows = format_rows("x", runs)
        assert len(rows) == 2
        assert all(r.startswith("| x |") for r in rows)
        assert HEADER.count("|") > 5

    def test_relative_time_baseline_is_one(self, small):
        S, T = small
        runs = run_suite(["recpart_s"], S, T, [30.0, 30.0], 4)
        assert "| 1.00 |" in format_rows("x", runs)[0]

    def test_none_rendered_as_dash(self, small):
        S, T = small
        runs = run_suite(["recpart_s", "grid_eps"], S, T, [0.0, 0.0], 4)
        assert "- | - | -" in format_rows("x", runs)[1]

    @pytest.mark.parametrize(
        "table", ["1", "2a", "2b", "2c", "3", "4a", "4b", "4c", "4d",
                  "5", "6", "7", "8", "9", "12", "15", "16"]
    )
    def test_paper_numbers_present_for_every_table(self, table):
        assert table in PAPER
        assert "Paper Table" in PAPER[table] or table == "1" or "paper" in PAPER[table].lower()


class TestExperimentConfig:
    def test_scaled_inputs(self):
        e, c = X.ebird_cloud_inputs(scale=0.01)
        assert len(e) == 2540 and len(c) == 1910
        assert e.shape[1] == 3

    def test_ptf_inputs(self):
        a, b = X.ptf_inputs(scale=0.01)
        assert a.shape == (3000, 2)

    def test_band_width_constants(self):
        assert X.EPS_1D[0] == 0.0
        assert len(X.EPS_RV_3D) == 2
        assert X.EPS_PTF == [2.78e-4, 8.33e-4]  # identical to the paper

    def test_deterministic(self):
        a1, _ = X.pareto_inputs(100, 1.5, 2, seed=3)
        a2, _ = X.pareto_inputs(100, 1.5, 2, seed=3)
        assert (a1 == a2).all()
