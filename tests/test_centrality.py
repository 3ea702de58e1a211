import pytest
from hypothesis import given
from hypothesis import strategies as st

from commnet import DailySnapshot, DegreeMap, degree, degree_share, top_k
from commnet.temporal import day_date


def snap(edges, nodes):
    return DailySnapshot(0, day_date(0), edges, frozenset(nodes))


SNAP = snap({(0, 1): 2, (0, 2): 1}, {0, 1, 2})


def test_out_degree_counts_messages():
    d = degree(SNAP, "out")
    assert d.values == {0: 3, 1: 0, 2: 0}


def test_in_degree():
    d = degree(SNAP, "in")
    assert d.values == {0: 0, 1: 2, 2: 1}


def test_total_degree():
    d = degree(SNAP, "total")
    assert d.values == {0: 3, 1: 2, 2: 1}


def test_empty_snapshot_all_zeros():
    d = degree(snap({}, {0, 1, 2}), "out")
    assert d.values == {0: 0, 1: 0, 2: 0}


def test_bad_direction():
    with pytest.raises(ValueError):
        degree(SNAP, "sideways")


def test_top_k_tie_break():
    d = DegreeMap({0: 5, 1: 5, 2: 1}, "out")
    assert top_k(d, 2).entries == ((0, 5), (1, 5))


def test_top_k_larger_than_node_count():
    d = DegreeMap({0: 5, 1: 3}, "out")
    assert top_k(d, 10).entries == ((0, 5), (1, 3))


def test_top_k_zero_handling():
    d = DegreeMap({0: 0, 1: 0}, "out")
    assert top_k(d, 2).entries == ()
    assert top_k(d, 2, include_zeros=True).entries == ((0, 0), (1, 0))
    with pytest.raises(ValueError):
        top_k(d, 0)


def test_degree_share_basic():
    d = DegreeMap({0: 8, 1: 1, 2: 1}, "out")
    assert degree_share(d, top_k(d, 1)) == pytest.approx(0.8)
    assert degree_share(d, top_k(d, 3)) == pytest.approx(1.0)


def test_degree_share_zero_total():
    d = DegreeMap({0: 0}, "out")
    assert degree_share(d, top_k(d, 1)) == 0.0


def test_degree_share_rejects_foreign_rank_list():
    d = DegreeMap({0: 8, 1: 1}, "out")
    other = DegreeMap({0: 7, 1: 1}, "out")
    with pytest.raises(ValueError):
        degree_share(d, top_k(other, 1))


def test_degree_conservation(micro_snapshots):
    for s in micro_snapshots:
        out = degree(s, "out")
        inn = degree(s, "in")
        assert out.total == inn.total == s.message_count


degree_maps = st.dictionaries(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=50),
    min_size=1,
    max_size=12,
)


@given(degree_maps, st.integers(min_value=2, max_value=9))
def test_scaling_leaves_ranking_unchanged(values, factor):
    d = DegreeMap(values, "out")
    scaled = DegreeMap({k: v * factor for k, v in values.items()}, "out")
    k = max(1, len(values) // 2)
    assert [n for n, _ in top_k(d, k).entries] == [
        n for n, _ in top_k(scaled, k).entries
    ]


@given(degree_maps)
def test_degree_share_monotone_in_k(values):
    d = DegreeMap(values, "out")
    shares = [degree_share(d, top_k(d, k)) for k in range(1, len(values) + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
