"""Tests for the synthetic data generators (provided TPC-H-lite plus the
paper's band-join datasets)."""
import numpy as np
import pytest

from repro.synth_data import (
    PARETO_GRAIN,
    RV_PARETO_TOP,
    cloud_like,
    ebird_like,
    pareto_points,
    ptf_like,
    rv_pareto_points,
    to_spark,
)


class TestPareto:
    def test_shape_and_domain(self):
        x = pareto_points(1000, 1.5, 3, seed=0)
        assert x.shape == (1000, 3)
        assert (x >= 1000.0 - 1e-9).all()  # scale * [1, inf)

    def test_deterministic(self):
        a = pareto_points(500, 1.5, 2, seed=3)
        b = pareto_points(500, 1.5, 2, seed=3)
        assert (a == b).all()

    def test_grain_creates_duplicates(self):
        x = pareto_points(20_000, 1.5, 1, seed=1)
        assert len(np.unique(x)) < len(x)  # equi-join will be non-empty

    def test_values_on_grain_grid(self):
        x = pareto_points(100, 1.5, 1, seed=2)
        snapped = np.round(x / PARETO_GRAIN) * PARETO_GRAIN
        assert np.allclose(x, snapped)

    def test_more_skew_for_larger_z(self):
        lo = pareto_points(50_000, 0.5, 1, seed=4)
        hi = pareto_points(50_000, 2.0, 1, seed=4)
        # larger z concentrates mass near the scale: smaller median
        assert np.median(hi) < np.median(lo)

    def test_heavy_tail(self):
        x = pareto_points(100_000, 1.0, 1, seed=5)
        assert x.max() > 100 * np.median(x)


class TestRvPareto:
    def test_t_mirrors_from_top(self):
        s = rv_pareto_points(1000, 1.5, 1, seed=6, side="S")
        t = rv_pareto_points(1000, 1.5, 1, seed=6, side="T")
        assert np.allclose(s + t, RV_PARETO_TOP)

    def test_anticorrelated_density(self):
        s = rv_pareto_points(5000, 1.5, 1, seed=7, side="S")
        t = rv_pareto_points(5000, 1.5, 1, seed=8, side="T")
        # S dense at the bottom, T dense at the top: big gap in medians
        assert np.median(t) - np.median(s) > 0.9e6


class TestSpatioTemporal:
    def test_ebird_schema(self):
        x = ebird_like(2000, seed=0)
        assert x.shape == (2000, 3)
        t, lat, lon = x[:, 0], x[:, 1], x[:, 2]
        assert t.min() >= 0 and t.max() <= 4000
        assert -90 <= lat.mean() <= 90 and lon.mean() < 0  # Americas

    def test_cloud_schema(self):
        x = cloud_like(2000, seed=0)
        assert x.shape == (2000, 3)

    def test_ebird_clustered(self):
        x = ebird_like(20_000, seed=0)
        # clustering: the densest 1-degree lat bin holds far more than
        # the uniform share
        counts, _ = np.histogram(x[:, 1], bins=np.arange(-90, 91))
        assert counts.max() > 5 * len(x) / 180

    def test_distributions_overlap(self):
        e = ebird_like(10_000, seed=0)
        c = cloud_like(10_000, seed=0)
        # band-join on (2,2,2) must have candidates: shared space-time
        assert abs(np.median(e[:, 1]) - np.median(c[:, 1])) < 15

    def test_deterministic(self):
        assert (ebird_like(100, seed=5) == ebird_like(100, seed=5)).all()


class TestPtf:
    def test_schema(self):
        x = ptf_like(5000, seed=0)
        assert x.shape == (5000, 2)
        assert 0 <= x[:, 0].min() and x[:, 0].max() < 360.5

    def test_repeat_observations_within_arcseconds(self):
        x = ptf_like(20_000, seed=0)
        # many pairs within 1 arcsec (repeat observations of one object)
        from repro.dist.local_join import band_join_count

        eps = np.array([2.78e-4, 2.78e-4])
        matches = band_join_count(x[:5000], x[5000:10000], eps)
        assert matches > 1000

    def test_few_cross_object_matches(self):
        # different seeds -> different object catalogs -> almost no
        # arcsecond-level coincidences
        a = ptf_like(5000, seed=0)
        b = ptf_like(5000, seed=99)
        from repro.dist.local_join import band_join_count

        eps = np.array([2.78e-4, 2.78e-4])
        assert band_join_count(a, b, eps) < 100


class TestToSpark:
    """`to_spark` hands the band-join its inputs: a frame whose plan holds
    no rows, with every id and coordinate as given."""

    def test_plan_holds_no_rows(self, spark):
        df = to_spark(spark, pareto_points(100, 1.5, 2, seed=0))
        assert "LocalRelation" not in df._jdf.queryExecution().analyzed().toString()

    @pytest.mark.parametrize("shape, id_offset", [((300, 3), 0), ((300, 3), 5000), ((300,), 7)])
    def test_ids_and_coordinates_round_trip_exactly(self, spark, shape, id_offset):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        pts.flat[:3] = [0.1, -0.0, 5e-324]
        want = pts.reshape(len(pts), -1)
        dims = [f"a{i + 1}" for i in range(want.shape[1])]
        got = to_spark(spark, pts, id_offset=id_offset).toPandas()
        assert list(got.columns) == ["id", *dims]
        got = got.sort_values("id")
        assert got["id"].tolist() == list(range(id_offset, id_offset + len(pts)))
        assert np.array_equal(got[dims].to_numpy().view(np.int64), want.view(np.int64))

    def test_nan_row_is_kept(self, spark):
        """Rejecting a NaN row is the band-join map stage's job
        (`check_relation` per batch), not the loader's. Arrow hands the
        NaN to Spark as a null, which reaches pandas as NaN again."""
        pts = pareto_points(50, 1.5, 2, seed=0)
        pts[7, 1] = np.nan
        got = to_spark(spark, pts).toPandas().set_index("id")
        assert len(got) == 50
        assert got.index[got["a2"].isna()].tolist() == [7]
        assert got["a1"].notna().all()


class TestTpchLite:
    """The provided TPC-H-lite generators stay usable alongside the
    band-join datasets (they feed the Spark oracle tests)."""

    def test_lineitem(self, spark):
        df = __import__("repro.synth_data", fromlist=["lineitem"]).lineitem(
            spark, sf=0.001
        )
        assert df.count() == 6000
        assert "l_shipdate" in df.columns

    def test_orders(self, spark):
        from repro.synth_data import orders

        df = orders(spark, sf=0.001)
        assert df.count() == 1500
