"""Tests for the running-time cost model M(I, I_m, O_m)."""
import numpy as np
import pytest

from repro.core.cost_model import CostModel, fit


class TestPredict:
    def test_linear_form(self):
        cm = CostModel(b0=1.0, b1=2.0, b2=3.0, b3=4.0, unit=1.0)
        assert cm.predict(10, 20, 30) == 1.0 + 2 * 10 + 3 * 20 + 4 * 30

    def test_default_relative_weights(self):
        cm = CostModel()
        # paper: b2/b3 ~= 4 (an input tuple on the loaded worker ~ 4x an
        # output tuple)
        assert cm.b2 / cm.b3 == pytest.approx(4.0)

    @pytest.mark.parametrize("coef", ["b1", "b2", "b3"])
    @pytest.mark.parametrize("value", [-1.0, np.nan])
    def test_negative_coefficient_rejected(self, coef, value):
        with pytest.raises(ValueError, match="must be >= 0"):
            CostModel(**{coef: value})

    def test_monotone_in_each_argument(self):
        cm = CostModel()
        base = cm.predict(100, 10, 10)
        assert cm.predict(200, 10, 10) > base
        assert cm.predict(100, 20, 10) > base
        assert cm.predict(100, 10, 20) > base


class TestWithRatio:
    def test_table13_form(self):
        # Table 13: beta1 fixed at 1, local block 4*I_m + O_m scaled
        cm = CostModel().with_ratio(10.0)
        assert cm.b1 == 1.0
        assert cm.b2 == pytest.approx(40.0)
        assert cm.b3 == pytest.approx(10.0)

    def test_ratio_one_is_default_weights(self):
        cm = CostModel().with_ratio(1.0)
        assert (cm.b1, cm.b2, cm.b3) == (1.0, 4.0, 1.0)

    def test_high_ratio_dominated_by_local_cost(self):
        lo = CostModel().with_ratio(1e-4)
        hi = CostModel().with_ratio(1e4)
        # same metrics: the high-ratio model must weigh I_m far more vs I
        assert hi.predict(0, 100, 0) / hi.predict(100, 0, 0) > 1e3
        assert lo.predict(0, 100, 0) / lo.predict(100, 0, 0) < 1


class TestFit:
    def test_recovers_synthetic_coefficients(self):
        rng = np.random.default_rng(0)
        rows = rng.random((50, 3)) * 1e6
        true = CostModel(b0=0.5, b1=1.0, b2=4.0, b3=1.0, unit=2e-7)
        times = np.array([true.predict(*r) for r in rows])
        got = fit(rows, times)
        for r in rows[:5]:
            assert got.predict(*r) == pytest.approx(true.predict(*r), rel=1e-6)
        assert got.b2 / got.b3 == pytest.approx(4.0, rel=1e-3)

    def test_clips_negative_noise(self):
        rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        times = np.array([3.0, 2.0, 1.0])  # decreasing: negative slope
        got = fit(rows, times)
        assert got.b1 >= 0

    def test_refits_without_a_negative_coefficient(self):
        """Dropping a coefficient that comes out negative must refit the
        rest, not keep the intercept and slopes tuned alongside it."""
        rng = np.random.default_rng(1)
        rows = rng.random((40, 3)) * 1e5
        rows[:, 2] = 0.0
        times = 0.5 + 2e-6 * rows[:, 0] - 1e-6 * rows[:, 1]
        got = fit(rows, times)
        A = np.column_stack([np.ones(len(rows)), rows[:, 0]])
        want, *_ = np.linalg.lstsq(A, times, rcond=None)
        pred = np.array([got.predict(*r) for r in rows])
        assert pred == pytest.approx(A @ want, rel=1e-9)
