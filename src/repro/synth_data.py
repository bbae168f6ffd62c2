"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


# --------------------------------------------------------------------------
# Band-join datasets for the RecPart reproduction (paper Section 6.1).
#
# The paper's inputs are 200-800 million tuples; we reproduce at 1/2000
# scale (see DESIGN.md Section 3). Generators return float numpy arrays of
# shape (n, d); `to_spark` wraps them as DataFrames with a unique `id`.
# --------------------------------------------------------------------------

#: value scale of the Pareto generators. Draws from [1, inf) are multiplied
#: by this so the bulk of the data spans [SCALE, ~1000*SCALE], giving band
#: widths room to range from "equi-join-like" to "dense" (Figure 1 regimes).
PARETO_SCALE = 1000.0
#: rounding grain: values are rounded to multiples of this, creating
#: duplicate join values so that eps=0 (pure equi-join) has non-empty
#: output, as in the paper's Table 1 (band width 0 -> 2430M results).
PARETO_GRAIN = 0.05
#: domain anchor of the reverse-Pareto tables (paper: "T follows a Pareto
#: distribution from 10^6 down to -inf").
RV_PARETO_TOP = 1.0e6


def pareto_points(
    n: int,
    z: float,
    d: int = 1,
    *,
    seed: int = 0,
    scale: float = PARETO_SCALE,
    grain: float = PARETO_GRAIN,
) -> np.ndarray:
    """pareto-z: each of the d join attributes is an independent draw
    with PDF z/x^(z+1) on [1, inf) (the paper's power-law family; greater
    z = more skew toward the low end), scaled and rounded. High-frequency
    values are the same in every relation drawn from this family, which
    is the paper's "high-frequency values in S are also high-frequency
    values in T" correlation."""
    g = _rng(seed)
    x = (g.pareto(z, (n, d)) + 1.0) * scale
    if grain > 0:
        x = np.round(x / grain) * grain
    return x


def rv_pareto_points(
    n: int,
    z: float,
    d: int = 1,
    *,
    seed: int = 0,
    side: str = "S",
    scale: float = PARETO_SCALE,
    grain: float = PARETO_GRAIN,
) -> np.ndarray:
    """rv-pareto-z: S is pareto-z; T mirrors the same draws downward from
    10^6 ("T is skewed toward larger values ... converting each number y
    to 10^6 - y"), so high-frequency S-values are low-frequency T-values
    and vice versa — the adversarial case for one-sided duplication."""
    x = pareto_points(n, z, d, seed=seed, scale=scale, grain=grain)
    if side == "T":
        return RV_PARETO_TOP - x
    return x


def _gaussian_mixture(
    n: int, centers: np.ndarray, sigmas: np.ndarray, weights: np.ndarray, g: np.random.Generator
) -> np.ndarray:
    comp = g.choice(len(centers), size=n, p=weights / weights.sum())
    return centers[comp] + g.standard_normal((n, centers.shape[1])) * sigmas[comp]


def ebird_like(n: int, *, seed: int = 10) -> np.ndarray:
    """ebird stand-in: (time [days], latitude, longitude) of bird
    sightings. Observations cluster around population centers (birders
    report where people live) with a long uniform tail; time is uniform
    over ~11 years. Substitutes the real 508M-row eBird reference set
    (DESIGN.md Section 3)."""
    g = _rng(seed)
    centers = np.array(
        [[40.7, -74.0], [34.1, -118.2], [41.9, -87.6], [29.8, -95.4],
         [47.6, -122.3], [25.8, -80.2], [39.7, -105.0], [45.5, -73.6],
         [33.4, -112.1], [42.4, -71.1]]
    )
    sigmas = np.array([[1.5, 2.0]] * len(centers)) * g.uniform(0.5, 1.5, (len(centers), 1))
    weights = g.pareto(1.0, len(centers)) + 0.2
    latlon = _gaussian_mixture(int(n * 0.9), centers, sigmas, weights, g)
    background = np.column_stack(
        [g.uniform(20, 60, n - len(latlon)), g.uniform(-130, -60, n - len(latlon))]
    )
    latlon = np.vstack([latlon, background])
    g.shuffle(latlon)
    t = g.uniform(0, 4000, n)
    return np.column_stack([t, latlon[:, 0], latlon[:, 1]])


def cloud_like(n: int, *, seed: int = 11) -> np.ndarray:
    """cloud stand-in: (time, lat, lon) of synoptic weather reports from
    ships and land stations — different cluster centers (shipping lanes,
    stations) and broader ocean coverage than ebird, but overlapping in
    space-time so the band-join output is non-trivial."""
    g = _rng(seed)
    centers = np.array(
        [[38.0, -76.0], [36.0, -122.0], [44.0, -83.0], [28.0, -90.0],
         [49.0, -125.0], [30.0, -81.0], [41.0, -100.0], [46.0, -71.0],
         [35.0, -106.0], [43.0, -70.0], [40.0, -40.0], [20.0, -155.0]]
    )
    sigmas = np.array([[2.5, 3.5]] * len(centers)) * g.uniform(0.5, 1.5, (len(centers), 1))
    weights = g.pareto(1.2, len(centers)) + 0.3
    latlon = _gaussian_mixture(int(n * 0.8), centers, sigmas, weights, g)
    background = np.column_stack(
        [g.uniform(10, 65, n - len(latlon)), g.uniform(-170, -30, n - len(latlon))]
    )
    latlon = np.vstack([latlon, background])
    g.shuffle(latlon)
    t = g.uniform(0, 4000, n)
    return np.column_stack([t, latlon[:, 0], latlon[:, 1]])


def ptf_like(n: int, *, seed: int = 12, obs_per_object: float = 8.0) -> np.ndarray:
    """Palomar Transient Factory stand-in: (ra, dec) in degrees of repeat
    observations of celestial objects. Distinct objects are spread over
    the survey footprint (denser near the galactic plane band); each is
    re-observed several times with sub-arcsecond astrometric jitter, so a
    band-join with arcsecond band width matches repeat observations
    (paper Appendix A.5)."""
    g = _rng(seed)
    n_obj = max(1, int(n / obs_per_object))
    ra = g.uniform(0.0, 360.0, n_obj)
    # mixture: half the objects concentrated in a +/-10 degree band
    dec_plane = g.uniform(-10.0, 10.0, n_obj)
    dec_wide = g.uniform(-30.0, 90.0, n_obj)
    dec = np.where(g.random(n_obj) < 0.5, dec_plane, dec_wide)
    which = g.integers(0, n_obj, n)
    jitter = g.standard_normal((n, 2)) * (0.3 / 3600.0)  # 0.3 arcsec
    return np.column_stack([ra[which], dec[which]]) + jitter


def to_spark(
    spark: SparkSession, pts: np.ndarray, *, id_offset: int = 0, prefix: str = "a"
) -> DataFrame:
    """Wrap a (n, d) point array as a DataFrame with columns
    ``id, a1..ad`` (the layout `dist.band_join` expects)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    pdf = pd.DataFrame(pts, columns=[f"{prefix}{i+1}" for i in range(pts.shape[1])])
    pdf.insert(0, "id", np.arange(id_offset, id_offset + len(pts), dtype=np.int64))
    return spark.createDataFrame(pdf)
