"""Acceptance gate: one test per criterion, each printing a PASS line.

Statistical thresholds were frozen from pilot simulations over the exact seed
lists used here; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""
import math
import statistics
import time

import numpy as np
import pytest
from scipy import stats

import commnet as cn
from commnet.pipeline import RUN_INFO_FILENAME, PipelineConfig, run
from commnet.temporal import SECONDS_PER_DAY, date_to_day

from . import brute


def _ok(label: str) -> None:
    print(f"acceptance {label}: PASS")


def degrees_of(g: cn.UndirectedGraph) -> list[int]:
    return np.diff(g.adjacency.indptr).tolist()


def _arrays(values: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Aligned node and degree arrays of a {node: degree} map."""
    return np.array(list(values)), np.array(list(values.values()))


def test_criterion_1_ols_exactness():
    start = time.monotonic()
    for g in (1.5, 2.0, 2.5, 3.0):
        pdf = {k: float(k) ** (-g) for k in range(1, 101)}
        fit = cn.fit_ols(cn.DegreeHistogram.from_pdf(pdf), target="pdf", xmin=1)
        assert abs(fit.gamma - g) < 1e-6
        assert fit.r_squared >= 0.999999
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(f"1 (noiseless OLS exactness, {elapsed:.2f}s)")


def test_criterion_2_ba_exponent_recovery():
    start = time.monotonic()
    hits = 0
    for seed in range(20):
        g = cn.generate_ba(cn.BAParams(n=10_000, m=3, seed=seed))
        fit = cn.fit_mle_sweep(degrees_of(g))
        hits += 2.6 <= fit.gamma <= 3.4
    elapsed = time.monotonic() - start
    assert hits >= 18, f"only {hits}/20 seeds inside [2.6, 3.4]"
    assert elapsed < 30.0
    _ok(f"2 (growth-model exponent recovery {hits}/20, {elapsed:.1f}s)")


def _poisson_chi_square_pvalue(degrees: np.ndarray) -> float:
    """Goodness of fit against Poisson(sample mean); adjacent bins pooled to
    expected count >= 5; dof loses one for the estimated mean."""
    n = degrees.size
    lam = degrees.mean()
    kmax = int(degrees.max())
    observed = np.bincount(degrees, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), lam) * n
    observed = np.append(observed, 0.0)
    expected = np.append(expected, stats.poisson.sf(kmax, lam) * n)
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0:
        obs_bins[-1] += o_acc
        exp_bins[-1] += e_acc
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    exp *= obs.sum() / exp.sum()
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, len(obs) - 2))


def test_criterion_3_random_baseline_rejected():
    r2_hits = 0
    chi_hits = 0
    for seed in range(20):
        g = cn.generate_er(cn.ERParams(n=10_000, p=1e-3, seed=seed))
        deg = np.array(degrees_of(g))
        fit = cn.fit_ols(cn.histogram(deg), target="pdf", xmin=1)
        r2_hits += fit.r_squared < 0.9
        chi_hits += _poisson_chi_square_pvalue(deg) > 0.01
    assert r2_hits >= 18, f"pdf-OLS r^2 < 0.9 in only {r2_hits}/20 seeds"
    assert chi_hits >= 18, f"chi-square passed in only {chi_hits}/20 seeds"
    _ok(f"3 (random baseline rejected, r2 {r2_hits}/20, chi2 {chi_hits}/20)")


def test_criterion_4_attack_vs_failure_gap():
    start = time.monotonic()
    gap_wins = 0
    random_ok = 0
    for seed in range(20):
        g = cn.generate_ba(cn.BAParams(n=2000, m=3, seed=seed))
        targeted = cn.robustness_curves(
            g,
            [cn.RemovalStrategy("targeted")],
            [0.05],
            compute_path_length=False,
        )[0].points[0]
        random_pt = cn.robustness_curves(
            g,
            [cn.RemovalStrategy("random", seed=seed)],
            [0.05],
            compute_path_length=False,
        )[0].points[0]
        gap_wins += (
            targeted.giant_component_fraction < random_pt.giant_component_fraction
        )
        random_ok += random_pt.giant_component_fraction > 0.9
    elapsed = time.monotonic() - start
    assert gap_wins >= 19, f"targeted < random in only {gap_wins}/20 paired seeds"
    assert random_ok >= 18, f"random kept giant > 0.9 in only {random_ok}/20 seeds"
    assert elapsed < 60.0
    _ok(f"4 (attack/failure gap {gap_wins}/20, random {random_ok}/20, {elapsed:.1f}s)")


def test_criterion_5_temporal_pipeline_on_hub_corpus():
    start = time.monotonic()
    stream = cn.generate_hub_corpus(
        cn.HubCorpusParams(
            nodes=151, days=131, hubs=10, hub_rate=40.0, background_rate=1.0, seed=0
        )
    )
    window = cn.slice_days(stream)
    assert window.length == 131
    table = cn.degree_table(stream, window, "out")

    series = cn.consecutive_day_correlation(table)
    median_r = statistics.median(series.defined_values)
    assert median_r > 0.8

    # identity-shuffled control: permute node identity per day, destroying
    # cross-day alignment while preserving each day's degree multiset
    registry = list(table.nodes)
    vectors = table.values.tolist()
    rng = np.random.default_rng(1234)
    control = []
    for a, b in zip(vectors, vectors[1:]):
        perm = rng.permutation(len(registry))
        r = brute.pearson(a, [b[i] for i in perm])
        if r is not None:
            control.append(r)
    control_median = statistics.median(control)
    assert abs(control_median) < 0.2

    consistency, _ = cn.daily_vs_aggregate_consistency(table, 10)
    assert consistency.count == 10

    aggregate = table.values.sum(axis=0)
    top = cn.top_k(table.nodes, aggregate, 10)
    share = cn.degree_share(table.nodes, aggregate, top)
    assert share >= 0.5

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(
        "5 (hub corpus: median r "
        f"{median_r:.3f}, control {control_median:+.3f}, consistency "
        f"{consistency.count}/10, share {share:.3f}, {elapsed:.1f}s)"
    )


def test_criterion_6_hand_oracle_equivalence(micro_stream, micro_window):
    tol = 1e-9

    # degrees: every direction, every day, plus the aggregate
    for direction in ("out", "in", "total"):
        table = cn.degree_table(micro_stream, micro_window, direction)
        nodes = table.nodes.tolist()
        for day in range(micro_window.length):
            got = dict(zip(nodes, table.values[day].tolist()))
            assert got == brute.degrees(day, direction), (direction, day)
        agg_map = dict(zip(nodes, table.values.sum(axis=0).tolist()))
        assert agg_map == brute.degrees(None, direction)

    # top-k rank lists and degree shares
    for day in (0, 1, 2, None):
        values = brute.degrees(day, "out")
        dmap = _arrays(values)
        for k in (1, 2, 4):
            assert list(cn.top_k(*dmap, k).entries) == brute.top_k(values, k)
            share = cn.degree_share(*dmap, cn.top_k(*dmap, k))
            assert abs(share - brute.degree_share(values, k)) < tol

    # consecutive-day correlations
    series = cn.consecutive_day_correlation(
        cn.degree_table(micro_stream, micro_window, "out")
    )
    expected_rs = brute.consecutive_correlations("out")
    assert len(series.pairs) == len(expected_rs)
    for pair, expected in zip(series.pairs, expected_rs):
        assert not pair.excluded
        assert abs(pair.r - expected) < tol

    # node series statistics and CV for every node
    for node in range(5):
        ns = cn.node_series(cn.degree_table(micro_stream, micro_window, "out"), node)
        assert list(ns.values) == brute.node_values(node, "out")
        mean, std, cv = brute.series_stats(ns.values)
        assert abs(ns.mean - mean) < tol
        assert abs(ns.stddev - std) < tol
        if cv is None:
            assert ns.cv is None
        else:
            assert abs(ns.cv - cv) < tol

    # pairwise rank overlaps and the mean-overlap table
    for k in (1, 2, 3):
        for a in range(3):
            for b in range(a + 1, 3):
                la = cn.top_k(*_arrays(brute.degrees(a, "out")), k)
                lb = cn.top_k(*_arrays(brute.degrees(b, "out")), k)
                shared = len(la.node_ids & lb.node_ids)
                assert shared == brute.overlap_count(a, b, k)
        table = cn.overlap_vs_k(
            cn.degree_table(micro_stream, micro_window, "out"), [k]
        )
        assert abs(table[k] - brute.mean_overlap(k)) < tol

    # daily/aggregate consistency and the frequency table
    for k in (1, 2, 3):
        result, freq = cn.daily_vs_aggregate_consistency(
            cn.degree_table(micro_stream, micro_window, "out"), k
        )
        assert result.count == brute.consistency_count(k)
        assert freq == brute.top_frequency(k)

    _ok("6 (hand-oracle equivalence on the micro corpus)")


def test_criterion_7_closed_form_spot_checks():
    # one-hot series: CV is exactly sqrt(n - 1)
    for n in (4, 131):
        values = [0] * n
        values[1] = 7
        day_1 = (date_to_day(brute.BASE_DATE) + 1) * SECONDS_PER_DAY
        stream = cn.TemporalEdgeStream([0] * 7, [1] * 7, [day_1] * 7)
        series = cn.node_series(
            cn.degree_table(
                stream, cn.slice_days(stream, brute.BASE_DATE, num_days=n)
            ),
            0,
        )
        assert series.cv == pytest.approx(math.sqrt(n - 1), rel=1e-12)

    # star with 4 leaves: average path length exactly 1.6
    star4 = cn.UndirectedGraph([(0, i) for i in range(1, 5)])
    intact = cn.robustness_curves(star4, [cn.RemovalStrategy("random")], [0.0])[0]
    assert intact.points[0].average_path_length == pytest.approx(1.6, abs=1e-12)

    # star targeted attack: first removal is the hub, giant fraction 1/n
    n = 5
    curve = cn.robustness_curves(star4, [cn.RemovalStrategy("targeted")], [1 / n])[0]
    assert curve.points[0].giant_component_fraction == pytest.approx(
        1 / n, abs=1e-12
    )
    _ok("7 (closed-form spot checks)")


def test_criterion_8_pipeline_determinism(tmp_path):
    def config(out):
        return PipelineConfig(
            output_dir=out,
            hub_params=cn.HubCorpusParams(
                nodes=80,
                days=25,
                hubs=6,
                hub_rate=15.0,
                background_rate=1.0,
                seed=7,
            ),
            k=6,
            k_values=(3, 6, 12),
            robustness_steps=(0.0, 0.1, 0.2),
            seed=7,
        )

    run(config(tmp_path / "a"))
    run(config(tmp_path / "b"))
    rel_a = sorted(
        p.relative_to(tmp_path / "a")
        for p in (tmp_path / "a").rglob("*")
        if p.is_file()
    )
    rel_b = sorted(
        p.relative_to(tmp_path / "b")
        for p in (tmp_path / "b").rglob("*")
        if p.is_file()
    )
    assert rel_a == rel_b
    compared = 0
    for rel in rel_a:
        if rel.name == RUN_INFO_FILENAME:
            continue  # wall-clock metadata, documented exclusion
        assert (tmp_path / "a" / rel).read_bytes() == (
            tmp_path / "b" / rel
        ).read_bytes(), rel
        compared += 1
    assert compared >= 10
    _ok(f"8 (byte-identical outputs, {compared} files compared)")
