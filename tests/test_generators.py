import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commnet as cn
from commnet import BAParams, ERParams, HubCorpusParams
from commnet.generators import _unrank_pairs


def degrees_of(g: cn.UndirectedGraph) -> dict[int, int]:
    degrees = np.diff(g.adjacency.indptr)
    return dict(zip(g.nodes.tolist(), degrees.tolist()))


# ---------------------------------------------------------------------------
# preferential attachment
# ---------------------------------------------------------------------------


def test_ba_minimal_tree():
    g = cn.generate_ba(BAParams(n=4, m=1, m0=1, seed=5))
    assert len(g.edges) == 3
    assert len(g.nodes) == 4
    # a connected graph with n-1 edges is a tree
    intact = cn.robustness_curves(
        g, [cn.RemovalStrategy("random")], [0.0], compute_path_length=False
    )[0]
    assert intact.points[0].giant_component_fraction == 1.0


def test_ba_edge_count_formula():
    g = cn.generate_ba(BAParams(n=100, m=3, seed=0))
    assert len(g.edges) == 3 * 2 // 2 + 97 * 3


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=3),
)
def test_ba_edge_count_and_handshake(m, extra_m0, extra_n, seed):
    m0 = m + extra_m0
    n = m0 + extra_n
    g = cn.generate_ba(BAParams(n=n, m=m, m0=m0, seed=seed))
    expected = m0 * (m0 - 1) // 2 + (n - m0) * m
    assert len(g.edges) == expected
    assert sum(degrees_of(g).values()) == 2 * expected


def test_ba_param_validation():
    with pytest.raises(ValueError):
        BAParams(n=5, m=0)
    with pytest.raises(ValueError):
        BAParams(n=5, m=3, m0=2)
    with pytest.raises(ValueError):
        BAParams(n=3, m=3)


def test_ba_deterministic():
    a = cn.generate_ba(BAParams(n=200, m=2, seed=42))
    b = cn.generate_ba(BAParams(n=200, m=2, seed=42))
    c = cn.generate_ba(BAParams(n=200, m=2, seed=43))
    assert a == b
    assert a != c


def test_ba_max_degree_grows_with_n():
    # rich-get-richer signature, frozen from a 20/20 pilot over paired seeds
    wins = 0
    for seed in range(20):
        small = max(
            degrees_of(cn.generate_ba(BAParams(n=1_000, m=3, seed=seed))).values()
        )
        large = max(
            degrees_of(cn.generate_ba(BAParams(n=10_000, m=3, seed=seed))).values()
        )
        wins += large > small
    assert wins >= 19


# ---------------------------------------------------------------------------
# random baseline
# ---------------------------------------------------------------------------


def test_er_extremes():
    assert cn.generate_er(ERParams(n=50, p=0.0, seed=1)).edges.tolist() == []
    full = cn.generate_er(ERParams(n=10, p=1.0, seed=1))
    assert len(full.edges) == 45


def test_er_param_validation():
    with pytest.raises(ValueError):
        ERParams(n=0, p=0.5)
    with pytest.raises(ValueError):
        ERParams(n=5, p=1.5)


def test_er_deterministic():
    a = cn.generate_er(ERParams(n=300, p=0.02, seed=9))
    b = cn.generate_er(ERParams(n=300, p=0.02, seed=9))
    assert a == b


def test_unrank_pairs_matches_enumeration():
    for n in (2, 3, 5, 12):
        total = n * (n - 1) // 2
        i, j = _unrank_pairs(np.arange(total), n)
        assert list(zip(i.tolist(), j.tolist())) == list(
            itertools.combinations(range(n), 2)
        )


def test_er_edge_count_statistics():
    # 20 seeds at n=1e4, p=1e-3: every draw within 3 sigma in the pilot
    n, p = 10_000, 1e-3
    total = n * (n - 1) // 2
    mean = total * p
    sigma = (total * p * (1 - p)) ** 0.5
    ratios = []
    for seed in range(20):
        g = cn.generate_er(ERParams(n=n, p=p, seed=seed))
        assert abs(len(g.edges) - mean) <= 3 * sigma
        deg = np.array(list(degrees_of(g).values()))
        ratios.append(deg.var() / deg.mean())
    assert all(0.9 <= r <= 1.1 for r in ratios)


# ---------------------------------------------------------------------------
# planted-hub corpus
# ---------------------------------------------------------------------------


def test_hub_corpus_zero_days():
    stream = cn.generate_hub_corpus(
        HubCorpusParams(nodes=5, days=0, hubs=1, hub_rate=2.0, background_rate=1.0)
    )
    assert len(stream) == 0


def test_hub_corpus_param_validation():
    with pytest.raises(ValueError):
        HubCorpusParams(nodes=1, days=1, hubs=1, hub_rate=1.0, background_rate=1.0)
    with pytest.raises(ValueError):
        HubCorpusParams(nodes=5, days=1, hubs=9, hub_rate=1.0, background_rate=1.0)
    with pytest.raises(ValueError, match="^days must be >= 0$"):
        HubCorpusParams(nodes=5, days=-1, hubs=1, hub_rate=1.0, background_rate=1.0)
    with pytest.raises(ValueError):
        HubCorpusParams(nodes=5, days=1, hubs=1, hub_rate=0.0, background_rate=1.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            HubCorpusParams(nodes=5, days=1, hubs=1, hub_rate=rate, background_rate=1.0)
        with pytest.raises(ValueError, match="finite"):
            HubCorpusParams(nodes=5, days=1, hubs=1, hub_rate=1.0, background_rate=rate)


def test_hub_corpus_deterministic_and_sorted():
    params = HubCorpusParams(
        nodes=30, days=10, hubs=3, hub_rate=8.0, background_rate=1.0, seed=11
    )
    a = cn.generate_hub_corpus(params)
    b = cn.generate_hub_corpus(params)
    assert a == b
    stamps = a.timestamps.tolist()
    assert stamps == sorted(stamps)


def test_hub_corpus_registry_is_union_of_participants():
    stream = cn.generate_hub_corpus(
        HubCorpusParams(nodes=40, days=3, hubs=2, hub_rate=5.0, background_rate=0.2, seed=2)
    )
    ids = stream.node_registry
    participants = ids[np.concatenate([stream.senders, stream.recipients])]
    assert ids.tolist() == sorted(set(participants.tolist()))


def test_hub_corpus_dominant_share():
    # expected hub share of out-degree: 10*40 / (10*40 + 141*1) ~ 0.74
    stream = cn.generate_hub_corpus(
        HubCorpusParams(
            nodes=151, days=131, hubs=10, hub_rate=40.0, background_rate=1.0, seed=0
        )
    )
    table = cn.degree_table(stream, cn.slice_days(stream), "out")
    hub_mass = sum(int(table.column(u).sum()) for u in range(10))
    assert hub_mass / int(table.values.sum()) >= 0.5


def test_hub_corpus_all_hubs_is_symmetric():
    # no planted asymmetry: every active node ends up in the same class
    stream = cn.generate_hub_corpus(
        HubCorpusParams(
            nodes=20, days=30, hubs=20, hub_rate=40.0, background_rate=40.0, seed=3
        )
    )
    window = cn.slice_days(stream)
    classes = set()
    for node in sorted(stream.node_registry):
        series = cn.node_series(cn.degree_table(stream, window), node)
        classes.add(cn.classify_stability(series))
    assert len(classes) == 1
