import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from commnet import (
    DegreeHistogram,
    fit_mle,
    fit_mle_sweep,
    fit_ols,
    histogram,
    powerlaw,
)
from commnet.errors import EmptyHistogramError, InsufficientSupportError

from . import ref_powerlaw


# ---------------------------------------------------------------------------
# oracles: samplers independent of the estimators under test
# ---------------------------------------------------------------------------


def sample_zeta(gamma, xmin, n, rng, kmax=10**6):
    """Inverse-transform sampler over the exact zeta-normalized pmf."""
    ks = np.arange(xmin, kmax + 1, dtype=np.float64)
    pmf = ks ** (-gamma) / zeta(gamma, xmin)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]  # truncated tail mass is ~1e-9 at kmax=1e6
    return xmin + np.searchsorted(cdf, rng.random(n), side="left")


def sample_rounded_pareto(gamma, xmin, n, rng):
    """Sampler for the continuity-corrected model family itself:
    K = round(X) with X continuous power law above xmin - 0.5."""
    u = rng.random(n)
    x = (xmin - 0.5) * u ** (-1.0 / (gamma - 1.0))
    return np.floor(x + 0.5).astype(np.int64)


def exact_power_pdf(g, kmax=100):
    return {k: float(k) ** (-g) for k in range(1, kmax + 1)}


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_star_graph():
    # star with 1 hub and 4 leaves, total degree
    h = histogram(np.array([4, 1, 1, 1, 1]))
    assert h.support == (1, 4)
    assert h.pdf == (0.8, 0.2)
    assert h.n == 5


def test_histogram_single_value():
    h = histogram(np.array([3, 3, 3]))
    assert h.support == (3,)
    assert h.pdf == (1.0,)
    assert h.ccdf == (1.0,)


def test_ccdf_values():
    h = histogram(np.array([4, 1, 1, 1, 1]))
    assert h.ccdf == pytest.approx((1.0, 0.2))


def test_histogram_all_zero():
    with pytest.raises(EmptyHistogramError):
        histogram(np.array([0, 0]))
    with pytest.raises(EmptyHistogramError, match="^pdf has no positive mass$"):
        DegreeHistogram.from_pdf({1: 0.0, 2: 0.0})


def test_histogram_zero_accounting():
    h = histogram(np.array([2, 0, 0]))
    assert h.zeros_dropped == 2
    assert h.n == 1


def test_histogram_invariants(micro_stream, micro_window):
    from commnet import degree_table

    table = degree_table(micro_stream, micro_window, "out")
    for t in range(micro_window.length):
        h = histogram(table.values[t])
        assert sum(h.pdf) == pytest.approx(1.0, abs=1e-9)
        assert all(a >= b for a, b in zip(h.ccdf, h.ccdf[1:]))
        assert h.ccdf[0] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# OLS fits
# ---------------------------------------------------------------------------


def test_ols_exact_pdf_recovers_exponent():
    h = DegreeHistogram.from_pdf(exact_power_pdf(2.0))
    fit = fit_ols(h, target="pdf", xmin=1)
    assert fit.gamma == pytest.approx(2.0, abs=1e-6)
    assert fit.r_squared >= 0.999999
    assert fit.method == "ols-pdf"


@settings(max_examples=25)
@given(st.floats(min_value=1.5, max_value=4.0))
def test_ols_exactness_over_exponent_range(g):
    h = DegreeHistogram.from_pdf(exact_power_pdf(g))
    fit = fit_ols(h, target="pdf", xmin=1)
    assert fit.gamma == pytest.approx(g, abs=1e-6)
    assert fit.r_squared >= 0.999999


def test_ols_ccdf_slope_relation():
    # pdf chosen so the ccdf is exactly k^(1-g) at every support point
    g = 2.5
    kmax = 200
    pdf = {
        k: float(k) ** (1 - g) - float(k + 1) ** (1 - g) for k in range(1, kmax)
    }
    pdf[kmax] = float(kmax) ** (1 - g)
    h = DegreeHistogram.from_pdf(pdf)
    fit = fit_ols(h, target="ccdf", xmin=1)
    assert fit.gamma == pytest.approx(g, abs=1e-9)
    assert fit.method == "ols-ccdf"


def test_ols_insufficient_support():
    h = histogram(np.array([1, 2]))
    with pytest.raises(InsufficientSupportError):
        fit_ols(h, xmin=1)
    h2 = DegreeHistogram.from_pdf(exact_power_pdf(2.0, kmax=10))
    with pytest.raises(InsufficientSupportError):
        fit_ols(h2, xmin=9)


def test_ols_bad_target():
    h = DegreeHistogram.from_pdf(exact_power_pdf(2.0))
    with pytest.raises(ValueError):
        fit_ols(h, target="cdf")


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def test_mle_all_samples_equal_closed_form():
    fit = fit_mle([2] * 100, xmin=2)
    assert fit.gamma == pytest.approx(1.0 + 1.0 / math.log(2 / 1.5), rel=1e-12)
    assert fit.n_tail == 100


def test_mle_insufficient_support():
    with pytest.raises(InsufficientSupportError):
        fit_mle([5] * 100, xmin=6)  # xmin above the max sample
    with pytest.raises(InsufficientSupportError):
        fit_mle([3] * 9, xmin=1)
    with pytest.raises(ValueError):
        fit_mle([3] * 20, xmin=0)


def test_mle_duplication_invariance():
    rng = np.random.default_rng(3)
    s = sample_zeta(2.2, 1, 5000, rng)
    doubled = np.concatenate([s, s])
    assert fit_mle(s, 1).gamma == pytest.approx(fit_mle(doubled, 1).gamma, rel=1e-12)


def test_mle_recovers_exponent_in_own_family():
    # sampling the continuity-corrected model itself keeps xmin=5 estimates tight
    rng = np.random.default_rng(7)
    s = sample_rounded_pareto(2.5, 5, 100_000, rng)
    fit = fit_mle(s, xmin=5)
    assert 2.45 <= fit.gamma <= 2.55
    assert fit.ks_statistic < 0.01


def test_mle_sweep_recovers_exponent_from_zeta_samples():
    # the KS sweep pushes the cutoff past the small-k region where the
    # continuity approximation is biased; pilot runs land at xmin 4-5
    for seed in (7, 11, 13):
        rng = np.random.default_rng(seed)
        s = sample_zeta(2.5, 1, 100_000, rng)
        fit = fit_mle_sweep(s)
        assert 2.45 <= fit.gamma <= 2.55
        assert fit.xmin >= 2


def test_mle_sweep_no_viable_cutoff():
    with pytest.raises(InsufficientSupportError):
        fit_mle_sweep([1, 2, 3])


def _ba_total_degrees(seed, n=10_000, m=3):
    import commnet as cn

    g = cn.generate_ba(cn.BAParams(n=n, m=m, seed=seed))
    return np.diff(g.adjacency.indptr)


def test_ols_ccdf_band_on_growth_model():
    # asymptotic exponent is 3; pilot over 20 seeds stayed in [2.83, 2.95]
    for seed in range(3):
        h = histogram(_ba_total_degrees(seed))
        fit = fit_ols(h, target="ccdf", xmin=1)
        assert 2.6 <= fit.gamma <= 3.4


def test_ks_bootstrap_calibration():
    # data drawn from the fitted model itself: the observed KS should be
    # null-typical; frozen from a pilot at 18/20
    passes = 0
    runs = 20
    for run in range(runs):
        rng = np.random.default_rng(run)
        data = sample_rounded_pareto(2.5, 5, 2000, rng)
        fit = fit_mle(data, xmin=5)
        null = [
            fit_mle(sample_rounded_pareto(fit.gamma, 5, 2000, rng), xmin=5).ks_statistic
            for _ in range(100)
        ]
        passes += fit.ks_statistic < np.quantile(null, 0.95)
    assert passes >= 18


# ---------------------------------------------------------------------------
# independent sweep oracle: the MLE and KS distance from their definitions,
# in plain Python over a sorted list
# ---------------------------------------------------------------------------


def oracle_fit(sample, xmin):
    """(gamma, ks, n_tail) at ``xmin``, or None below 10 tail samples."""
    tail = sorted(int(k) for k in sample if k >= xmin)
    n = len(tail)
    if n < 10:
        return None
    shift = xmin - 0.5
    gamma = 1.0 + n / math.fsum(math.log(k / shift) for k in tail)
    ks = 0.0
    for below, k in enumerate(tail):
        if below and tail[below - 1] == k:
            continue  # P(K >= k) is read at each distinct k's first sample
        model = ((k - 0.5) / shift) ** (1.0 - gamma)
        ks = max(ks, abs((n - below) / n - model))
    return gamma, ks, n


def oracle_sweep(sample):
    """(xmin, gamma, ks, n_tail) of the first minimum-KS cutoff, or None."""
    best = None
    for xmin in sorted({int(k) for k in sample if k >= 1}):
        fit = oracle_fit(sample, xmin)
        if fit is not None and (best is None or fit[1] < best[2]):
            best = (xmin, *fit)
    return best


def assert_matches_oracle(fit, expected):
    xmin, gamma, ks, n_tail = expected
    assert fit.xmin == xmin and fit.n_tail == n_tail
    assert fit.gamma == pytest.approx(gamma, rel=1e-12)
    assert fit.ks_statistic == pytest.approx(ks, rel=1e-12)


def _hub_corpus_distributions():
    import commnet as cn

    stream = cn.generate_hub_corpus(
        cn.HubCorpusParams(
            nodes=80, days=30, hubs=6, hub_rate=30.0, background_rate=2.0, seed=5
        )
    )
    table = cn.degree_table(stream, cn.slice_days(stream, None), "out")
    return [*table.values, table.values.sum(axis=0)]


def test_sweep_matches_oracle_on_hub_corpus():
    fitted = 0
    for degrees in _hub_corpus_distributions():
        expected = oracle_sweep(degrees.tolist())
        if expected is None:
            with pytest.raises(InsufficientSupportError):
                fit_mle_sweep(degrees)
            continue
        assert_matches_oracle(fit_mle_sweep(degrees), expected)
        fitted += 1
    assert fitted >= 20


def test_sweep_matches_oracle_on_zeta_samples():
    for seed, gamma in ((1, 2.1), (2, 2.5), (3, 3.0)):
        s = sample_zeta(gamma, 1, 3000, np.random.default_rng(seed)).tolist()
        assert_matches_oracle(fit_mle_sweep(s), oracle_sweep(s))


def test_fit_mle_matches_oracle_between_observed_values():
    sample = [2] * 30 + [5] * 12
    expected = (3, *oracle_fit(sample, 3))
    assert expected[3] == 12
    assert_matches_oracle(fit_mle(sample, xmin=3), expected)
    with pytest.raises(InsufficientSupportError, match="have 0"):
        fit_mle(sample, xmin=6)


# ---------------------------------------------------------------------------
# the blocked KS sweep against the frozen per-cutoff loop: equal fits, bit
# for bit
# ---------------------------------------------------------------------------

degree_samples = st.one_of(
    st.lists(st.integers(0, 12), max_size=200),
    st.lists(st.integers(-3, 10**6), max_size=200),
    st.lists(
        st.one_of(st.integers(0, 4), st.integers(1, 3000)), min_size=10, max_size=300
    ),
)


def _fit_or_reason(fit, *args):
    try:
        return fit(*args)
    except InsufficientSupportError as exc:
        return str(exc)


@settings(max_examples=300)
@given(degree_samples, st.integers(1, 40), st.sampled_from([1, 7, 500, None]))
def test_fits_equal_the_per_cutoff_loop(sample, xmin, cells):
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:  # down to one cutoff a block
            mp.setattr(powerlaw, "_KS_CELLS", cells)
        sweep = _fit_or_reason(fit_mle_sweep, sample)
        single = _fit_or_reason(fit_mle, sample, xmin)
    assert sweep == _fit_or_reason(ref_powerlaw.fit_mle_sweep, sample)
    assert single == _fit_or_reason(ref_powerlaw.fit_mle, sample, xmin)


def test_ks_keeps_the_scalar_power_at_gamma_two():
    # gamma == 2 makes the model exponent -1.0, which numpy takes as
    # np.reciprocal for a Python float; pow can differ in the last bit. Each
    # row reads one value, whose model 1 / base lies in [0.5, 1), so the KS
    # 1 - 1 / base keeps every bit of it
    shifts = np.random.default_rng(0).uniform(499.75, 999.5, 2000)
    distinct, above = np.array([1, 1000]), np.array([30, 10])
    rows = len(shifts)
    got = powerlaw._ks_distances(
        distinct, above, np.ones(rows, dtype=np.int64), shifts, [2.0] * rows, [10] * rows
    )
    want = [
        float(np.abs(above[1:] / 10 - ((distinct[1:] - 0.5) / s) ** (1.0 - 2.0)).max())
        for s in shifts.tolist()
    ]
    assert got == want


def test_ks_blocks_stay_within_their_cell_budget():
    # 20,000 distinct values and 19,991 cutoffs: the whole (cutoffs x
    # distinct values) array would take 3.2 GB; blocks of 2**17 cells keep
    # the traced peak of the sweep under 8 MB
    sample = np.arange(1, 20_001)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fit = fit_mle_sweep(sample)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert fit.n_tail >= 10
    assert peak <= 8_000_000
