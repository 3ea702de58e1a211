import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commnet as cn
from commnet import robustness
from commnet import (
    RemovalStrategy,
    UndirectedGraph,
    average_path_length,
    giant_component_fraction,
    robustness_curve,
)
from commnet.cli import main


def star(leaves: int) -> UndirectedGraph:
    return UndirectedGraph([(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# giant component
# ---------------------------------------------------------------------------


def test_giant_fraction_connected():
    assert giant_component_fraction(star(6), 7) == 1.0


def test_giant_fraction_split_components():
    g = UndirectedGraph([(0, 1), (1, 2), (3, 4)])
    assert giant_component_fraction(g, 5) == pytest.approx(0.6)


def test_giant_fraction_all_isolated():
    g = UndirectedGraph((), nodes=range(8))
    assert giant_component_fraction(g, 8) == pytest.approx(1 / 8)


def test_giant_fraction_empty_and_validation():
    assert giant_component_fraction(UndirectedGraph(), 0) == 0.0
    with pytest.raises(ValueError):
        giant_component_fraction(star(3), 2)


# ---------------------------------------------------------------------------
# average path length
# ---------------------------------------------------------------------------


def test_apl_path_graph():
    g = UndirectedGraph([(0, 1), (1, 2)])
    assert average_path_length(g) == pytest.approx(4 / 3)


def test_apl_complete_graph():
    g = UndirectedGraph([(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert average_path_length(g) == pytest.approx(1.0)


def test_apl_star():
    assert average_path_length(star(4)) == pytest.approx(1.6)


def test_apl_undefined_cases():
    assert average_path_length(UndirectedGraph()) is None
    assert average_path_length(UndirectedGraph((), nodes=range(5))) is None


def test_apl_uses_largest_component():
    # triangle plus a detached pair: only the triangle counts
    g = UndirectedGraph([(0, 1), (1, 2), (0, 2), (10, 11)])
    assert average_path_length(g) == pytest.approx(1.0)


def test_apl_matches_networkx_oracle():
    for seed in (0, 1):
        ba = cn.generate_ba(cn.BAParams(n=120, m=2, seed=seed))
        ours = average_path_length(ba)
        ref = nx.average_shortest_path_length(nx.Graph(ba.edges.tolist()))
        assert ours == pytest.approx(ref, rel=1e-12)


def test_apl_sampled_mode_close_to_exact():
    g = cn.generate_ba(cn.BAParams(n=400, m=3, seed=7))
    exact = average_path_length(g)
    sampled = average_path_length(g, exact_limit=100, sample_size=128, seed=1)
    assert sampled == pytest.approx(exact, rel=0.05)
    # sampling is seeded, hence repeatable
    again = average_path_length(g, exact_limit=100, sample_size=128, seed=1)
    assert sampled == again


# Hypothesis graphs stay under 64 nodes, one word of the bit-parallel BFS.
# These cross word boundaries (63, 64, 65, 129) and, with the block budget
# cut down to a few words, sweep boundaries with a final partial word.
GROWTH_SIZES = (63, 64, 65, 129, 300)


@pytest.fixture(scope="module", params=GROWTH_SIZES)
def growth(request):
    g = cn.generate_ba(cn.BAParams(n=request.param, m=2, seed=request.param))
    return g, nx.average_shortest_path_length(nx.Graph(g.edges.tolist()))


def _words_per_sweep(monkeypatch, g: UndirectedGraph, words: int | None) -> None:
    """Cut the BFS block budget of connected ``g`` to ``words`` words a sweep."""
    if words is not None:
        nnz = 2 * len(g.edges)
        monkeypatch.setattr(robustness, "_BFS_BLOCK_BYTES", words * 8 * nnz)


@pytest.mark.parametrize("words", [None, 1, 2, 3])
def test_apl_across_words_and_sweeps(growth, words, monkeypatch):
    g, ref = growth
    _words_per_sweep(monkeypatch, g, words)
    assert average_path_length(g) == pytest.approx(ref, rel=1e-12)


def test_apl_closed_forms():
    n = 1_000
    path = UndirectedGraph([(i, i + 1) for i in range(n - 1)])
    assert average_path_length(path) == (n + 1) / 3  # 999 BFS levels
    cycle = UndirectedGraph([(i, (i + 1) % n) for i in range(n)])
    assert average_path_length(cycle) == n * n / (4 * (n - 1))  # n even


@pytest.mark.parametrize("words", [None, 1])
def test_apl_sampled_sources_match_networkx(words, monkeypatch):
    g = cn.generate_ba(cn.BAParams(n=300, m=2, seed=4))
    _words_per_sweep(monkeypatch, g, words)
    # the same seeded draw of 150 source positions as the sampled branch
    sources = np.sort(
        np.random.default_rng(5).choice(300, size=150, replace=False)
    )
    ref = nx.Graph(g.edges.tolist())
    total = sum(
        sum(nx.single_source_shortest_path_length(ref, int(g.nodes[s])).values())
        for s in sources
    )
    ours = average_path_length(g, exact_limit=10, sample_size=150, seed=5)
    assert ours == total / (150 * 299)


# ---------------------------------------------------------------------------
# removal curves
# ---------------------------------------------------------------------------


def test_star_targeted_attack_kills_hub_first():
    n = 11
    curve = robustness_curve(star(10), RemovalStrategy("targeted"), [0.0, 1 / n])
    assert curve.points[0].giant_component_fraction == 1.0
    assert curve.points[1].giant_component_fraction == pytest.approx(1 / n)
    assert curve.points[1].average_path_length is None


def test_star_random_removal_of_a_leaf():
    n = 11
    g = star(10)
    # pick a fixed seed whose first draw is a leaf, then assert the fraction
    seed = next(
        s
        for s in range(50)
        if sorted(g.nodes)[np.random.default_rng(s).permutation(n)[0]] != 0
    )
    curve = robustness_curve(g, RemovalStrategy("random", seed=seed), [1 / n])
    assert curve.points[0].giant_component_fraction == pytest.approx((n - 1) / n)


def test_zero_removal_is_identity():
    g = cn.generate_ba(cn.BAParams(n=60, m=2, seed=1))
    curve = robustness_curve(g, RemovalStrategy("targeted"), [0.0])
    assert curve.points[0].giant_component_fraction == 1.0
    assert curve.points[0].average_path_length == pytest.approx(
        average_path_length(g)
    )


def test_giant_fraction_non_increasing_along_curve():
    for kind in ("random", "targeted"):
        g = cn.generate_er(cn.ERParams(n=150, p=0.03, seed=3))
        curve = robustness_curve(
            g, RemovalStrategy(kind, seed=5), [0.0, 0.1, 0.2, 0.4, 0.6]
        )
        fracs = [p.giant_component_fraction for p in curve.points]
        assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))


def test_adaptive_differs_from_static():
    # hub plus a triangle: adaptive re-ranks after the hub falls, static does not
    edges = [(8, 1), (8, 2), (8, 3), (8, 4), (1, 2), (5, 6), (6, 7), (5, 7)]
    g = UndirectedGraph(edges)
    steps = [2 / 8]
    adaptive = robustness_curve(g, RemovalStrategy("targeted"), steps)
    static = robustness_curve(
        g, RemovalStrategy("targeted", adaptive=False), steps
    )
    # adaptive removes 8 then 5 (triangle), static removes 8 then 1
    assert adaptive.points[0].giant_component_fraction == pytest.approx(2 / 8)
    assert static.points[0].giant_component_fraction == pytest.approx(3 / 8)


def test_targeted_tie_broken_by_ascending_id():
    # two disjoint stars with equal hub degree; the lower hub id goes first
    g = UndirectedGraph(
        [(0, i) for i in range(1, 4)] + [(10, i) for i in range(11, 14)]
    )
    curve = robustness_curve(g, RemovalStrategy("targeted"), [1 / 8])
    # removing hub 0 first leaves the second star intact
    assert curve.points[0].giant_component_fraction == pytest.approx(4 / 8)


def test_random_removal_deterministic_per_seed():
    g = cn.generate_er(cn.ERParams(n=100, p=0.05, seed=0))
    a = robustness_curve(g, RemovalStrategy("random", seed=3), [0.1, 0.3])
    b = robustness_curve(g, RemovalStrategy("random", seed=3), [0.1, 0.3])
    assert a == b


def test_curve_validation():
    g = star(3)
    with pytest.raises(ValueError):
        robustness_curve(g, RemovalStrategy("random"), [])
    with pytest.raises(ValueError):
        robustness_curve(g, RemovalStrategy("random"), [0.2, 0.1])
    with pytest.raises(ValueError):
        robustness_curve(g, RemovalStrategy("random"), [0.5, 1.0])
    with pytest.raises(ValueError):
        RemovalStrategy("betweenness")
    with pytest.raises(ValueError):
        robustness_curve(UndirectedGraph(), RemovalStrategy("random"), [0.1])


def test_targeted_attack_beats_random_failure_statistically():
    wins = 0
    for seed in range(5):
        g = cn.generate_ba(cn.BAParams(n=600, m=3, seed=seed))
        kwargs = dict(steps=[0.05], compute_path_length=False)
        targeted = robustness_curve(g, RemovalStrategy("targeted"), **kwargs)
        random = robustness_curve(g, RemovalStrategy("random", seed=seed), **kwargs)
        wins += (
            targeted.points[0].giant_component_fraction
            < random.points[0].giant_component_fraction
        )
    assert wins >= 4


# ---------------------------------------------------------------------------
# networkx reference
# ---------------------------------------------------------------------------


def _nx_graph(g: UndirectedGraph) -> nx.Graph:
    ref = nx.Graph()
    ref.add_nodes_from(g.nodes.tolist())
    ref.add_edges_from(g.edges.tolist())
    return ref


def _nx_giant_and_apl(ref: nx.Graph) -> tuple[int, float | None]:
    """Largest component (ties to the smallest id) and its mean distance."""
    comp = max(nx.connected_components(ref), key=lambda c: (len(c), -min(c)))
    if len(comp) < 2:
        return len(comp), None
    return len(comp), nx.average_shortest_path_length(ref.subgraph(comp))


def _nx_curve(g: UndirectedGraph, strategy: RemovalStrategy, steps):
    ref = _nx_graph(g)
    nodes = sorted(ref)
    n = len(nodes)
    if strategy.kind == "random":
        order = [nodes[i] for i in np.random.default_rng(strategy.seed).permutation(n)]
    elif not strategy.adaptive:
        order = sorted(nodes, key=lambda u: (-ref.degree(u), u))
    else:
        order = None
    removed, points = 0, []
    for fraction in steps:
        while removed < int(fraction * n):
            if order is None:
                u = min(ref, key=lambda u: (-ref.degree(u), u))
            else:
                u = order[removed]
            ref.remove_node(u)
            removed += 1
        size, apl = _nx_giant_and_apl(ref)
        points.append((fraction, size / n, apl))
    return points


@st.composite
def small_graphs(draw):
    """Small connected pieces plus isolates on ids with gaps. Piece sizes
    repeat often, so equal-size components of different shape are common."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    # unique ids in drawn order, so the pieces interleave in id order
    ids = draw(st.lists(st.integers(-50, 50), min_size=sum(sizes),
                        max_size=sum(sizes), unique=True))
    pairs, start = [], 0
    for size in sizes:
        piece = ids[start : start + size]
        start += size
        # a random spanning tree, then up to two extra edges
        pairs += [(piece[draw(st.integers(0, i - 1))], piece[i])
                  for i in range(1, size)]
        extra = st.tuples(st.sampled_from(piece), st.sampled_from(piece))
        pairs += [(u, v) for u, v in draw(st.lists(extra, max_size=2)) if u != v]
    return UndirectedGraph(pairs, nodes=ids)


strategies = st.one_of(
    st.integers(0, 9).map(lambda seed: RemovalStrategy("random", seed=seed)),
    st.just(RemovalStrategy("targeted")),
    st.just(RemovalStrategy("targeted", adaptive=False)),
)


def _same(ours, ref):
    return ours is None and ref is None or ours == pytest.approx(ref, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), strategies)
def test_curve_and_apl_match_networkx(g, strategy):
    _, ref_apl = _nx_giant_and_apl(_nx_graph(g))
    assert _same(average_path_length(g), ref_apl)
    assert _same(average_path_length(g, exact_limit=3), ref_apl)
    # one point per removal count
    steps = [k / len(g.nodes) for k in range(len(g.nodes))]
    curve = robustness_curve(g, strategy, steps)
    ref = _nx_curve(g, strategy, steps)
    assert [p.fraction_removed for p in curve.points] == [f for f, _, _ in ref]
    assert [p.giant_component_fraction for p in curve.points] == [
        giant for _, giant, _ in ref
    ]
    for point, (_, _, apl) in zip(curve.points, ref):
        assert _same(point.average_path_length, apl)


# SHA-256 of both curve files for `robustness` on generate_ba(n=300, m=3,
# seed=2), recorded before the graph moved to arrays
PINNED_BA300 = {
    "default": {
        "robustness_random.dat": "fbadeb9ecbf1a00ab42b411f39c738ba2814be61b710141e9b9a179b90d9a4b8",
        "robustness_targeted.dat": "16018328a07208ac67ff5240b4cc986482ef4055d3981ab01cc140261f96b202",
    },
    "static": {
        "robustness_random.dat": "fbadeb9ecbf1a00ab42b411f39c738ba2814be61b710141e9b9a179b90d9a4b8",
        "robustness_targeted.dat": "929160665551d610ba86eafffa40a30a4fbb80a6fd00a80bc9630620b2cee8d9",
    },
}


def test_robustness_bytes_pinned(tmp_path):
    edges = tmp_path / "ba300.edges"
    args = ["--n", "300", "--m", "3", "--seed", "2", "--output", str(edges)]
    assert main(["generate", "ba", *args]) == 0
    for run, extra in (("default", []), ("static", ["--static-targeted"])):
        out = tmp_path / run
        args = ["--edges", str(edges), "--output-dir", str(out), *extra]
        assert main(["robustness", *args]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        }
        assert digests == PINNED_BA300[run], run
