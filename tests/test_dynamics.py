import math
import statistics
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import commnet as cn
from commnet import (
    DegreeTable,
    Stability,
    TemporalEdgeStream,
    classify_stability,
    consecutive_day_correlation,
    daily_vs_aggregate_consistency,
    degree_table,
    node_series,
    overlap_vs_k,
    top_k,
)
from commnet.dynamics import DegreeSeries, OverlapResult
from commnet.errors import UnknownNodeError
from commnet.temporal import day_date

from . import brute


def snap(i, edges, nodes):
    """Day i as a one-row out-degree table over the registry ``nodes``, built
    directly: these registries include nodes that send and receive nothing."""
    nodes = sorted(nodes)
    row = [sum(m for (u, _), m in edges.items() if u == node) for node in nodes]
    return DegreeTable(np.array(nodes, dtype=np.int64), np.array([row], dtype=np.int64))


def days_table(snaps):
    """Stack one-row day tables, in order, into one window's table."""
    return DegreeTable(snaps[0].nodes, np.concatenate([s.values for s in snaps]))


# ---------------------------------------------------------------------------
# pearson: the oracle in tests/brute.py that checks the day-pair r
# ---------------------------------------------------------------------------


def test_pearson_identical():
    assert brute.pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)


def test_pearson_reversed():
    assert brute.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    expected = 9 / math.sqrt(95)
    # cross-check the hand computation against an independent implementation
    assert np.corrcoef([1, 2, 3, 4], [2, 4, 4, 8])[0, 1] == pytest.approx(expected)
    assert brute.pearson([1, 2, 3, 4], [2, 4, 4, 8]) == pytest.approx(expected, abs=1e-12)


def test_pearson_errors_and_undefined():
    assert brute.pearson([5, 5, 5], [1, 2, 3]) is None


# integer vectors, as the oracle reads: on floats the property fails for
# every float implementation (x = [0.0, 1.4e-158], b = 1 maps x to [1.0, 1.0])
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-50, max_value=50),
)
def test_pearson_symmetry_and_affine_invariance(x, a, b):
    y = [(i * 7 % 13) - v for i, v in enumerate(x)]
    r1 = brute.pearson(x, y)
    assert (
        r1 is None
        and brute.pearson(y, x) is None
        or brute.pearson(y, x) == pytest.approx(r1, abs=1e-12)
    )
    if r1 is not None:
        scaled = [a * v + b for v in x]
        r2 = brute.pearson(scaled, y)
        assert r2 == pytest.approx(r1, abs=1e-12)


# ---------------------------------------------------------------------------
# consecutive-day correlation
# ---------------------------------------------------------------------------


def test_identical_days_correlate_perfectly():
    nodes = {0, 1, 2}
    s0 = snap(0, {(0, 1): 2, (1, 2): 1}, nodes)
    s1 = snap(1, {(0, 1): 2, (1, 2): 1}, nodes)
    series = consecutive_day_correlation(days_table([s0, s1]))
    assert series.pairs[0].r == pytest.approx(1.0)
    assert series.policy == "full-registry"


def test_rank_inversion_matches_hand_computation():
    # day 1: A out=1, B out=2; day 2: A out=2, B out=1; C, D, E inactive
    nodes = {0, 1, 2, 3, 4}
    s0 = snap(0, {(0, 2): 1, (1, 2): 2}, nodes)
    s1 = snap(1, {(0, 2): 2, (1, 2): 1}, nodes)
    series = consecutive_day_correlation(days_table([s0, s1]))
    expected = brute.pearson([1, 2, 0, 0, 0], [2, 1, 0, 0, 0])
    assert series.pairs[0].r == pytest.approx(expected)
    assert series.pairs[0].r < 1.0


def test_empty_day_excluded():
    nodes = {0, 1}
    s0 = snap(0, {(0, 1): 1}, nodes)
    s1 = snap(1, {}, nodes)
    s2 = snap(2, {(0, 1): 3}, nodes)
    series = consecutive_day_correlation(days_table([s0, s1, s2]))
    assert [p.excluded for p in series.pairs] == [True, True]
    assert [p.r for p in series.pairs] == [None, None]
    with pytest.raises(ValueError):
        consecutive_day_correlation(days_table([s0]))


def test_zero_variance_pair_flagged_undefined():
    nodes = {0, 1}
    s0 = snap(0, {(0, 1): 1, (1, 0): 1}, nodes)  # both out-degrees equal
    s1 = snap(1, {(0, 1): 2}, nodes)
    series = consecutive_day_correlation(days_table([s0, s1]))
    assert series.pairs[0].r is None
    assert not series.pairs[0].excluded


def test_planted_hubs_correlate_and_shuffle_control_does_not():
    stream = cn.generate_hub_corpus(
        cn.HubCorpusParams(
            nodes=60, days=40, hubs=5, hub_rate=30.0, background_rate=1.0, seed=4
        )
    )
    table = degree_table(stream, cn.slice_days(stream))
    series = consecutive_day_correlation(table)
    assert statistics.median(series.defined_values) > 0.8
    registry = list(table.nodes)
    vecs = table.values.tolist()
    rng = np.random.default_rng(99)
    control = []
    for a, b in zip(vecs, vecs[1:]):
        perm = rng.permutation(len(registry))
        r = brute.pearson(a, [b[i] for i in perm])
        if r is not None:
            control.append(r)
    assert abs(statistics.median(control)) < 0.2


# ---------------------------------------------------------------------------
# node series and stability
# ---------------------------------------------------------------------------


def test_absent_node_series():
    nodes = {0, 1, 9}
    snaps = [snap(i, {(0, 1): 1}, nodes) for i in range(4)]
    series = node_series(days_table(snaps), 9)
    assert series.values == (0, 0, 0, 0)
    assert series.mean == 0
    assert series.cv is None
    assert classify_stability(series) is Stability.INACTIVE


def test_node_series_needs_a_day():
    no_days = DegreeTable(np.array([9]), np.zeros((0, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="^need at least 1 day$"):
        node_series(no_days, 9)


def test_constant_series_cv_zero():
    nodes = {0, 1}
    snaps = [snap(i, {(0, 1): 5}, nodes) for i in range(10)]
    series = node_series(days_table(snaps), 0)
    assert series.values == (5,) * 10
    assert series.cv == 0.0
    assert classify_stability(series) is Stability.STABLE


def test_spike_series_hand_values():
    nodes = {0, 1}
    snaps = [
        snap(0, {}, nodes),
        snap(1, {}, nodes),
        snap(2, {(0, 1): 12}, nodes),
        snap(3, {}, nodes),
    ]
    series = node_series(days_table(snaps), 0)
    assert series.values == (0, 0, 12, 0)
    assert series.mean == pytest.approx(3.0)
    assert series.stddev == pytest.approx(math.sqrt(27), abs=1e-9)
    assert series.cv == pytest.approx(math.sqrt(3), abs=1e-9)


def test_unknown_node():
    snaps = [snap(0, {(0, 1): 1}, {0, 1})]
    with pytest.raises(UnknownNodeError):
        node_series(days_table(snaps), 77)


def test_one_hot_series_is_fluctuating():
    values = [0] * 131
    values[40] = 50
    series = DegreeSeries(tuple(values))
    assert series.cv == pytest.approx(math.sqrt(130), abs=1e-9)
    assert classify_stability(series, 1.0) is Stability.FLUCTUATING


@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=10**6),
)
def test_one_hot_cv_closed_form(n, v):
    values = [0] * n
    values[n // 2] = v
    series = DegreeSeries(tuple(values))
    assert series.cv == pytest.approx(math.sqrt(n - 1), rel=1e-9)


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=30),
    st.integers(min_value=1, max_value=9),
)
def test_stability_scale_invariant(values, factor):
    a = DegreeSeries(tuple(values))
    b = DegreeSeries(tuple(v * factor for v in values))
    assert classify_stability(a) is classify_stability(b)


# ---------------------------------------------------------------------------
# rank overlap: shared node ids of two top-k lists of one k
# ---------------------------------------------------------------------------


def rl(ids):
    """A top-k list of ``ids``, as top_k returns one: (node id, degree) pairs."""
    return tuple((i, 10 - j) for j, i in enumerate(ids))


def rank_overlap(a, b, k: int) -> OverlapResult:
    return OverlapResult(k, len({n for n, _ in a} & {n for n, _ in b}))


def test_rank_overlap_examples():
    res = rank_overlap(rl([1, 2, 3]), rl([2, 3, 4]), 3)
    assert res.count == 2
    assert res.percentage == pytest.approx(2 / 3)
    assert rank_overlap(rl([2, 3, 4]), rl([1, 2, 3]), 3).percentage == res.percentage
    assert rank_overlap(rl([1, 2, 3]), rl([1, 2, 3]), 3).percentage == 1.0
    assert rank_overlap(rl([1, 2]), rl([3, 4]), 2).count == 0


@given(st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=8))
def test_rank_overlap_self_is_k_sized(ids):
    lst = rl(sorted(ids))
    assert rank_overlap(lst, lst, len(ids)).count == len(ids)


# ---------------------------------------------------------------------------
# overlap vs k
# ---------------------------------------------------------------------------


def test_overlap_vs_k_identical_days():
    nodes = {0, 1, 2, 3}
    edges = {(0, 1): 4, (1, 2): 3, (2, 3): 2, (3, 0): 1}
    snaps = [snap(i, edges, nodes) for i in range(3)]
    result = overlap_vs_k(days_table(snaps), [1, 2, 4])
    assert all(v == pytest.approx(1.0) for v in result.values())


def test_overlap_vs_k_disjoint_days():
    nodes = set(range(8))
    s0 = snap(0, {(0, 1): 3, (2, 3): 1}, nodes)
    s1 = snap(1, {(4, 5): 2, (6, 7): 1}, nodes)
    result = overlap_vs_k(days_table([s0, s1]), [1, 2])
    assert result == {1: 0.0, 2: 0.0}


def test_overlap_vs_k_single_day_is_undefined():
    snaps = [snap(0, {(0, 1): 1}, {0, 1})]
    assert overlap_vs_k(days_table(snaps), [1]) == {1: None}


def test_overlap_vs_k_validation():
    snaps = [snap(0, {(0, 1): 1}, {0, 1})]
    with pytest.raises(ValueError):
        overlap_vs_k(days_table(snaps), [3, 2])
    with pytest.raises(ValueError):
        overlap_vs_k(days_table(snaps), [0, 2])
    with pytest.raises(ValueError):
        overlap_vs_k(days_table(snaps), [5, 5, 10])


def test_overlap_vs_k_counts_only_non_empty_days():
    # days 0, 2 and 5 of a six-day window are empty: first, middle and last
    by_day = {1: [(0, 1), (0, 1), (2, 1)], 3: [(0, 1), (2, 0)], 4: [(2, 1), (2, 0), (1, 0)]}
    rows = [(u, v, day * brute.DAY) for day, pairs in by_day.items() for u, v in pairs]
    stream = TemporalEdgeStream(*map(list, zip(*rows)))
    table = degree_table(stream, cn.slice_days(stream, day_date(0), num_days=6))
    non_empty = table.values.any(axis=1)
    assert non_empty.tolist() == [False, True, False, True, True, False]
    days = [dict(zip(table.nodes.tolist(), row)) for row in table.values[non_empty].tolist()]
    k_values = [1, 2, 3]
    expected = {}
    for k in k_values:
        tops = [{node for node, _ in brute.top_k(d, k)} for d in days]
        shared = sum(len(a & b) for a, b in combinations(tops, 2))
        # D = 3 non-empty days, so C(D, 2) = 3 pairs
        expected[k] = float(Fraction(shared, k * 3))
    assert overlap_vs_k(table, k_values) == expected


def test_overlap_nested_prefix_corpus_non_decreasing():
    # every day ranks nodes identically and has enough active nodes, so each
    # top-k is the same prefix and the mean overlap stays flat at 100%
    nodes = set(range(10))
    edges = {(u, (u + 1) % 10): 10 - u for u in range(10)}
    snaps = [snap(i, edges, nodes) for i in range(4)]
    result = overlap_vs_k(days_table(snaps), [2, 4, 8])
    values = [result[k] for k in (2, 4, 8)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_overlap_increases_with_k_on_hub_corpus():
    # 25 hubs of equal rate: each day's top-k is a noisy k-subset of the hub
    # set, so expected overlap percentage grows like k/25 (pilot: .20/.40/.80)
    stream = cn.generate_hub_corpus(
        cn.HubCorpusParams(
            nodes=151, days=60, hubs=25, hub_rate=40.0, background_rate=1.0, seed=0
        )
    )
    result = overlap_vs_k(degree_table(stream, cn.slice_days(stream)), [5, 10, 20])
    assert result[5] < result[10] < result[20]


# ---------------------------------------------------------------------------
# daily vs aggregate consistency
# ---------------------------------------------------------------------------


def test_single_day_consistency_is_total():
    nodes = {0, 1, 2}
    snaps = [snap(0, {(0, 1): 3, (1, 2): 1}, nodes)]
    result, freq = daily_vs_aggregate_consistency(days_table(snaps), 2)
    assert result.count == 2
    assert result.percentage == 1.0
    assert freq == {0: 1, 1: 1}


def test_consistency_frequency_table(micro_stream, micro_window):
    result, freq = daily_vs_aggregate_consistency(
        degree_table(micro_stream, micro_window), 2
    )
    assert freq == brute.top_frequency(2)
    assert result.count == brute.consistency_count(2)
    with pytest.raises(ValueError):
        daily_vs_aggregate_consistency(degree_table(micro_stream, micro_window), 0)


# ---------------------------------------------------------------------------
# every day-table statistic against plain-Python oracles
# ---------------------------------------------------------------------------


@st.composite
def gapped_day_tables(draw):
    """(ids, rows): gapped ascending node ids, with all-zero days and ties."""
    ids = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=7)))
    day = st.one_of(
        st.just([0] * len(ids)),
        st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)),
    )
    return ids, draw(st.lists(day, min_size=1, max_size=7))


@given(gapped_day_tables(), st.integers(min_value=1, max_value=8))
def test_day_table_statistics_match_oracles(case, k_max):
    ids, rows = case
    table = DegreeTable(
        np.array(ids, dtype=np.int64),
        np.array(rows, dtype=np.int64).reshape(len(rows), len(ids)),
    )
    days = [dict(zip(ids, row)) for row in rows]

    overlap = overlap_vs_k(table, range(1, k_max + 1))
    for k, got in overlap.items():
        tops = [{node for node, _ in brute.top_k(d, k)} for d in days]
        tops = [top for top in tops if top]
        if len(tops) < 2:
            assert got is None
            continue
        counts = [len(a & b) for a, b in combinations(tops, 2)]
        assert got == float(Fraction(sum(counts), k * len(counts)))
        assert got == pytest.approx(sum(c / k for c in counts) / len(counts), rel=1e-12)

    if len(rows) >= 2:
        for t, pair in enumerate(consecutive_day_correlation(table).pairs):
            excluded = not any(rows[t]) or not any(rows[t + 1])
            expected = None if excluded else brute.pearson(rows[t], rows[t + 1])
            assert (pair.day_a, pair.day_b, pair.excluded) == (t, t + 1, excluded)
            assert (pair.r is None) == (expected is None)
            if expected is not None:
                assert pair.r == pytest.approx(expected, abs=1e-12)

    result, freq = daily_vs_aggregate_consistency(table, k_max)
    counter = Counter(node for d in days for node, _ in brute.top_k(d, k_max))
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(freq.items()) == ordered
    aggregate = {node: sum(d[node] for d in days) for node in ids}
    agg_ids = {node for node, _ in brute.top_k(aggregate, k_max)}
    assert result.count == len({node for node, _ in ordered[:k_max]} & agg_ids)

    for j, node in enumerate(ids):
        _, _, cv = brute.series_stats([row[j] for row in rows])
        got = node_series(table, node).cv
        assert (got is None) == (cv is None)
        if cv is not None:
            assert got == pytest.approx(cv, abs=1e-12)


def test_days_are_ranked_once_per_table(micro_stream, micro_window, monkeypatch):
    ranked = []
    original = cn.centrality.ranked_positions

    def counting(degrees):
        ranked.append(degrees)
        return original(degrees)

    monkeypatch.setattr(cn.centrality, "ranked_positions", counting)
    table = degree_table(micro_stream, micro_window, "out")
    overlap_vs_k(table, [1, 2, 3])
    daily_vs_aggregate_consistency(table, 2)
    # the rows of the table that were ranked, in call order
    days = [
        t
        for degrees in ranked
        for t, row in enumerate(table.values)
        if np.shares_memory(degrees, row)
    ]
    assert len(table.values) > 1
    assert days == list(range(len(table.values)))
