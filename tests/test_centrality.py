import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from commnet import (
    DegreeTable,
    TemporalEdgeStream,
    degree_share,
    degree_table,
    histogram,
    slice_days,
    top_k,
)
from commnet.centrality import ranked_positions
from commnet.errors import EmptyHistogramError
from commnet.temporal import day_date, sorted_unique

from . import brute


def degree(edges, direction, *, day=0, num_days=1):
    """{node: degree} on window day ``day`` when all messages {(u, v): count}
    fall on day 0 of a ``num_days`` window."""
    pairs = [pair for pair, count in edges.items() for _ in range(count)]
    stream = TemporalEdgeStream(
        [u for u, _ in pairs], [v for _, v in pairs], [0] * len(pairs)
    )
    window = slice_days(stream, day_date(0), num_days=num_days)
    table = degree_table(stream, window, direction)
    return dict(zip(table.nodes.tolist(), table.values[day].tolist()))


def arrays(values):
    """Aligned node and degree arrays of a {node: degree} map."""
    return (
        np.array(list(values), dtype=np.int64),
        np.array(list(values.values()), dtype=np.int64),
    )


SNAP = {(0, 1): 2, (0, 2): 1}


def test_out_degree_counts_messages():
    d = degree(SNAP, "out")
    assert d == {0: 3, 1: 0, 2: 0}


def test_in_degree():
    d = degree(SNAP, "in")
    assert d == {0: 0, 1: 2, 2: 1}


def test_total_degree():
    d = degree(SNAP, "total")
    assert d == {0: 3, 1: 2, 2: 1}


def test_empty_snapshot_all_zeros():
    d = degree(SNAP, "out", day=1, num_days=2)
    assert d == {0: 0, 1: 0, 2: 0}


def test_bad_direction():
    with pytest.raises(ValueError):
        degree(SNAP, "sideways")


def test_top_k_tie_break():
    d = arrays({0: 5, 1: 5, 2: 1})
    assert top_k(*d, 2) == ((0, 5), (1, 5))


def test_top_k_larger_than_node_count():
    d = arrays({0: 5, 1: 3})
    assert top_k(*d, 10) == ((0, 5), (1, 3))


def test_top_k_zero_handling():
    d = arrays({0: 0, 1: 0})
    assert top_k(*d, 2) == ()
    with pytest.raises(ValueError):
        top_k(*d, 0)


def test_degree_share_basic():
    d = arrays({0: 8, 1: 1, 2: 1})
    assert degree_share(*d, 1) == pytest.approx(0.8)
    assert degree_share(*d, 3) == pytest.approx(1.0)


def test_ranked_positions_ranks_positive_cells():
    # descending degree, ties by ascending position, zeros left out
    ranked = ranked_positions(np.array([0, 3, 5, 3, 0, 1], dtype=np.int64))
    assert ranked.tolist() == [2, 1, 3, 5]
    assert ranked_positions(np.zeros(4, dtype=np.int64)).tolist() == []


def test_daily_ranking_holds_only_positive_cells():
    # 400 days x 5,000 nodes (a 16 MB table) with about 20 active nodes a day:
    # ranking the days allocates per positive cell, not per table cell
    days, size = 400, 5_000
    rng = np.random.default_rng(7)
    values = np.zeros((days, size), dtype=np.int64)
    for row in values:
        row[rng.choice(size, 20, replace=False)] = rng.integers(1, 50, 20)
    table = DegreeTable(np.arange(size, dtype=np.int64), values)
    tracemalloc.start()
    try:
        ranking = table.daily_ranking
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert len(ranking) == days
    assert all(len(r) == 20 for r in ranking)


def test_degree_share_zero_total():
    d = arrays({0: 0})
    assert degree_share(*d, 1) == 0.0


def test_degree_conservation(micro_stream, micro_window):
    out_table = degree_table(micro_stream, micro_window, "out")
    in_table = degree_table(micro_stream, micro_window, "in")
    for t, message_count in enumerate(micro_window.message_counts().tolist()):
        out = out_table.values[t]
        inn = in_table.values[t]
        assert out.sum() == inn.sum() == message_count


@pytest.mark.parametrize("direction", ["out", "in", "total"])
def test_aggregate_matches_oracle(micro_stream, micro_window, direction):
    table = degree_table(micro_stream, micro_window, direction)
    aggregate = dict(zip(table.nodes.tolist(), table.aggregate.tolist()))
    assert aggregate == brute.degrees(None, direction)
    assert table.aggregate is table.aggregate  # summed once per table
    assert not table.aggregate.flags.writeable


degree_maps = st.dictionaries(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=50),
    min_size=1,
    max_size=12,
)


@given(degree_maps, st.integers(min_value=2, max_value=9))
def test_scaling_leaves_ranking_unchanged(values, factor):
    d = arrays(values)
    scaled = arrays({k: v * factor for k, v in values.items()})
    k = max(1, len(values) // 2)
    assert [n for n, _ in top_k(*d, k)] == [n for n, _ in top_k(*scaled, k)]


@given(degree_maps)
def test_degree_share_monotone_in_k(values):
    d = arrays(values)
    shares = [degree_share(*d, k) for k in range(1, len(values) + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))


# ---------------------------------------------------------------------------
# the array core against plain-Python oracles
# ---------------------------------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
int64s = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
# gapped and negative ids, listed in no particular order
node_ids = st.lists(int64s, unique=True, min_size=1, max_size=15)
# small degrees give zeros and ties; large ones check nothing is truncated
degree_values = st.one_of(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**40)
)


def counter_histogram(degrees):
    """The degree distribution built from a Counter, ccdf summed from the tail."""
    counts = Counter(degrees)
    zeros = counts.pop(0, 0)
    support = sorted(counts)
    n = sum(counts.values())
    pdf = [counts[k] / n for k in support]
    ccdf, running = [], 0.0
    for p in reversed(pdf):
        running += p
        ccdf.append(running)
    return tuple(support), tuple(pdf), tuple(reversed(ccdf)), n, zeros


@st.composite
def degree_vectors(draw):
    """{node: degree} over gapped, negative, unordered ids."""
    ids = draw(node_ids)
    degs = draw(st.lists(degree_values, min_size=len(ids), max_size=len(ids)))
    return dict(zip(ids, degs))


@st.composite
def degree_rows(draw):
    """Ascending ids and one to five days of degrees over them."""
    ids = sorted(draw(node_ids))
    row = st.lists(st.integers(min_value=0, max_value=4), min_size=len(ids),
                   max_size=len(ids))
    return ids, draw(st.lists(row, min_size=1, max_size=5))


@given(degree_vectors())
def test_top_k_and_share_match_oracle(values):
    nodes, degrees = arrays(values)
    for k in range(1, len(values) + 2):
        assert list(top_k(nodes, degrees, k)) == brute.top_k(values, k)
        assert degree_share(nodes, degrees, k) == brute.degree_share(values, k)


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40))
def test_histogram_matches_counter(degrees):
    arr = np.array(degrees, dtype=np.int64)
    if not any(degrees):
        with pytest.raises(EmptyHistogramError):
            histogram(arr)
        return
    h = histogram(arr)
    assert (h.support, h.pdf, h.ccdf, h.n, h.zeros_dropped) == counter_histogram(
        degrees
    )


@given(st.lists(int64s, max_size=40))
def test_sorted_unique_matches_numpy(values):
    arr = np.array(values, dtype=np.int64)
    got = sorted_unique(arr)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(arr))


@given(degree_rows())
def test_daily_orderings_match_oracle(case):
    ids, rows = case
    table = DegreeTable(np.array(ids, dtype=np.int64), np.array(rows))
    expected = [
        [node for node, _ in brute.top_k(dict(zip(ids, row)), len(ids))]
        for row in rows
    ]
    # an empty day keeps its place, with an empty ranking
    assert [table.nodes[ranked].tolist() for ranked in table.daily_ranking] == expected
