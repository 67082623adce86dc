"""Piecewise CDF / alpha-estimation tests (kNN search-region sizing)."""
import numpy as np
import pytest

from repro.ml.pmf import PiecewiseCDF


def test_uniform_cdf_is_identity_like():
    v = np.random.default_rng(0).random(10_000)
    cdf = PiecewiseCDF(v, gamma=100)
    for x in (0.1, 0.3, 0.5, 0.9):
        assert abs(cdf(x) - x) < 0.02


def test_cdf_monotone():
    v = np.random.default_rng(1).random(2000) ** 3
    cdf = PiecewiseCDF(v, gamma=50)
    xs = np.linspace(0, 1, 200)
    vals = [cdf(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdf_bounds():
    v = np.random.default_rng(2).random(500)
    cdf = PiecewiseCDF(v)
    assert cdf(-10.0) == 0.0
    assert cdf(10.0) == 1.0


def test_alpha_uniform_near_one():
    v = np.random.default_rng(3).random(50_000)
    cdf = PiecewiseCDF(v, gamma=100)
    assert 0.7 < cdf.slope_alpha(0.5) < 1.4


def test_alpha_dense_region_small_sparse_region_large():
    """Skewed y = u^4: mass near 0 -> alpha < 1 there; sparse near 1 ->
    alpha > 1 (larger search window needed)."""
    v = np.random.default_rng(4).random(50_000) ** 4
    cdf = PiecewiseCDF(v, gamma=100)
    assert cdf.slope_alpha(0.01) < 0.5
    assert cdf.slope_alpha(0.8) > 1.5


def test_alpha_flat_region_capped():
    v = np.concatenate([np.zeros(100), np.ones(100)])
    cdf = PiecewiseCDF(v, gamma=10)
    a = cdf.slope_alpha(0.4)  # no mass here
    assert np.isfinite(a) and a >= 1.0


def test_degenerate_constant_dimension():
    cdf = PiecewiseCDF(np.full(100, 3.14))
    assert cdf(3.14) == 1.0
    assert cdf(3.0) == 0.0
    assert np.isfinite(cdf.slope_alpha(3.14))


def test_gamma_larger_than_n():
    v = np.random.default_rng(5).random(7)
    cdf = PiecewiseCDF(v, gamma=100)
    assert 0.0 <= cdf(float(v.mean())) <= 1.0


def test_size_bytes_positive():
    cdf = PiecewiseCDF(np.random.default_rng(6).random(1000), gamma=100)
    assert 0 < cdf.size_bytes() <= 101 * 16 + 32


# ---------------------------------------------------------------------------
# The scalar CDF against np.interp / np.clip
# ---------------------------------------------------------------------------

def numpy_cdf(cdf, x):
    """The CDF as ``np.interp`` then ``np.clip`` compute it."""
    if len(cdf.xs) == 1:
        return 1.0 if x >= cdf.xs[0] else 0.0
    return float(np.clip(np.interp(x, np.asarray(cdf.xs), np.asarray(cdf.ps)), 0.0, 1.0))


def numpy_alpha(cdf, x, delta=0.01):
    lo, hi = numpy_cdf(cdf, x), numpy_cdf(cdf, x + delta)
    rise = hi - lo
    span = (cdf.xs[-1] - cdf.xs[0]) if len(cdf.xs) > 1 else 1.0
    cap = max(1.0, span / max(delta, 1e-12))
    if rise <= 1e-12:
        return cap
    return float(min(cap, delta / rise))


def same_bits(a, b):
    """Equal as IEEE doubles, bit for bit; two NaNs count as equal."""
    a, b = np.float64(a), np.float64(b)
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return a.tobytes() == b.tobytes()


SCALAR_CASES = {
    "uniform": (np.random.default_rng(10).random(5000), 100),
    "skewed": (np.random.default_rng(11).random(5000) ** 4, 100),
    "repeated": (np.concatenate([np.zeros(300), np.full(200, 0.5), np.full(100, 0.75),
                                 np.random.default_rng(12).random(400)]), 100),
    "gamma>n": (np.random.default_rng(13).random(7), 100),
    "constant": (np.full(50, 0.25), 100),
    "infinite knots": (np.concatenate([np.full(3, -np.inf), np.random.default_rng(15).random(100),
                                       np.full(2, np.inf)]), 10),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_cdf_equals_numpy_bits(case):
    values, gamma = SCALAR_CASES[case]
    cdf = PiecewiseCDF(values, gamma)
    knots = np.asarray(cdf.xs)
    probes = [knots, knots - 0.01, knots + 0.01,
              np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
              np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300])]
    if case in ("uniform", "skewed"):
        probes.append(np.random.default_rng(14).uniform(-0.2, 1.2, 20_000))
    for x in np.concatenate(probes).tolist():
        assert same_bits(cdf(x), numpy_cdf(cdf, x)), x
        assert same_bits(cdf.slope_alpha(x), numpy_alpha(cdf, x)), x
    if case == "repeated":
        assert len(set(cdf.xs)) < len(cdf.xs)
    if case == "constant":
        assert len(cdf.xs) == 1
