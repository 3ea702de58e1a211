import hashlib
import math
import tracemalloc
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commnet as cn
from commnet import pipeline, robustness, temporal
from commnet import (
    RemovalStrategy,
    RobustnessPoint,
    UndirectedGraph,
    robustness_curves,
)
from commnet.cli import main

from . import brute


def star(leaves: int) -> UndirectedGraph:
    return UndirectedGraph([(0, i) for i in range(1, leaves + 1)])


def intact(g: UndirectedGraph) -> RobustnessPoint:
    """The 0.0-removal point of a curve: the giant fraction and average path
    length of ``g`` as it stands."""
    return robustness_curves(g, [RemovalStrategy("random")], [0.0])[0].points[0]


def sampled_apl(exact_limit: int, sample_size: int):
    """Patch the path-length sampling constants for a ``with`` block."""
    return patch.multiple(
        robustness,
        EXACT_PATH_LENGTH_LIMIT=exact_limit,
        DEFAULT_PATH_SAMPLE=sample_size,
    )


# ---------------------------------------------------------------------------
# giant component
# ---------------------------------------------------------------------------


def test_giant_fraction_connected():
    assert intact(star(6)).giant_component_fraction == 1.0


def test_giant_fraction_split_components():
    g = UndirectedGraph([(0, 1), (1, 2), (3, 4)])
    assert intact(g).giant_component_fraction == pytest.approx(0.6)


def test_giant_fraction_all_isolated():
    g = UndirectedGraph((), nodes=range(8))
    assert intact(g).giant_component_fraction == pytest.approx(1 / 8)


# ---------------------------------------------------------------------------
# average path length
# ---------------------------------------------------------------------------


def test_apl_path_graph():
    g = UndirectedGraph([(0, 1), (1, 2)])
    assert intact(g).average_path_length == pytest.approx(4 / 3)


def test_apl_complete_graph():
    g = UndirectedGraph([(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert intact(g).average_path_length == pytest.approx(1.0)


def test_apl_star():
    assert intact(star(4)).average_path_length == pytest.approx(1.6)


def test_apl_undefined_cases():
    assert intact(UndirectedGraph((), nodes=range(5))).average_path_length is None


def test_apl_uses_largest_component():
    # triangle plus a detached pair: only the triangle counts
    g = UndirectedGraph([(0, 1), (1, 2), (0, 2), (10, 11)])
    assert intact(g).average_path_length == pytest.approx(1.0)


def test_apl_matches_networkx_oracle():
    for seed in (0, 1):
        ba = cn.generate_ba(cn.BAParams(n=120, m=2, seed=seed))
        ours = intact(ba).average_path_length
        ref = nx.average_shortest_path_length(nx.Graph(ba.edges.tolist()))
        assert ours == pytest.approx(ref, rel=1e-12)


def test_apl_sampled_mode_close_to_exact():
    g = cn.generate_ba(cn.BAParams(n=400, m=3, seed=7))
    exact = intact(g).average_path_length
    with sampled_apl(100, 128):
        sampled = intact(g).average_path_length
        # sampling is seeded, hence repeatable
        again = intact(g).average_path_length
    assert sampled != exact
    assert sampled == pytest.approx(exact, rel=0.05)
    assert sampled == again


# Hypothesis graphs stay under 64 nodes, one word of the bit-parallel BFS.
# These cross word boundaries (63, 64, 65, 129) and, with the block budget
# cut down to a few words, sweep boundaries with a final partial word.
GROWTH_SIZES = (63, 64, 65, 129, 300)


@pytest.fixture(scope="module", params=GROWTH_SIZES)
def growth(request):
    g = cn.generate_ba(cn.BAParams(n=request.param, m=2, seed=request.param))
    return g, nx.average_shortest_path_length(nx.Graph(g.edges.tolist()))


def _words_per_sweep(monkeypatch, g: UndirectedGraph, words: int | None) -> list[int]:
    """Cut the BFS block budget of connected ``g`` to ``words`` words a sweep,
    sized from the padded entries of the kernel's own widest block, the one
    gather buffer every block reuses; returns the words of every pulled
    level as the kernel runs them."""
    if words is not None:
        everyone = np.ones(len(g.nodes), dtype=bool)
        widest = max(block.size for _, block in robustness._buckets(g.adjacency, everyone)[1])
        monkeypatch.setattr(robustness, "_BFS_BLOCK_BYTES", words * 8 * widest)
    ran = []
    pull = robustness._pull

    def spy(frontier, blocks):
        ran.append(frontier.shape[1])
        pull(frontier, blocks)

    monkeypatch.setattr(robustness, "_pull", spy)
    return ran


@pytest.mark.parametrize("words", [None, 1, 2, 3])
def test_apl_across_words_and_sweeps(growth, words, monkeypatch):
    g, ref = growth
    ran = _words_per_sweep(monkeypatch, g, words)
    assert intact(g).average_path_length == pytest.approx(ref, rel=1e-12)
    needed = -(-len(g.nodes) // 64)
    if words is not None:
        assert set(ran) == {min(words, needed)}
    else:
        # the default budget holds every source of these graphs in one
        # sweep, 5 words at 300 nodes
        assert set(ran) == {needed}


def test_apl_closed_forms():
    n = 1_000
    path = UndirectedGraph([(i, i + 1) for i in range(n - 1)])
    assert intact(path).average_path_length == (n + 1) / 3  # 999 BFS levels
    cycle = UndirectedGraph([(i, (i + 1) % n) for i in range(n)])
    assert intact(cycle).average_path_length == n * n / (4 * (n - 1))  # n even


@pytest.mark.parametrize("words", [None, 1])
def test_apl_sampled_sources_match_networkx(words, monkeypatch):
    g = cn.generate_ba(cn.BAParams(n=300, m=2, seed=4))
    _words_per_sweep(monkeypatch, g, words)
    # the same seeded draw of 150 source positions as the sampled branch
    sources = sorted(brute.seeded_order(0, 300)[:150])
    ref = nx.Graph(g.edges.tolist())
    total = sum(
        sum(nx.single_source_shortest_path_length(ref, int(g.nodes[s])).values())
        for s in sources
    )
    ran = _words_per_sweep(monkeypatch, g, words)
    with sampled_apl(10, 150):
        ours = intact(g).average_path_length
    assert ours == total / (150 * 299)
    if words is not None:
        assert set(ran) == {words}


def _nx_exact_apl(g: UndirectedGraph) -> float:
    """networkx's integer distance sum over every ordered pair of connected
    ``g``, divided by n(n - 1)."""
    ref = nx.Graph(g.edges.tolist())
    n = ref.number_of_nodes()
    total = sum(sum(d.values()) for _, d in nx.all_pairs_shortest_path_length(ref))
    return total / (n * (n - 1))


def caterpillar(degrees) -> UndirectedGraph:
    """A path of hubs, each topped up with leaves to its degree in ``degrees``
    (at least 2 inside the path, at least 1 at its ends)."""
    hubs = 1_000 + np.arange(len(degrees))
    pairs = list(zip(hubs[:-1].tolist(), hubs[1:].tolist()))
    leaf = 0
    for i, (hub, degree) in enumerate(zip(hubs.tolist(), degrees)):
        on_path = (i > 0) + (i < len(degrees) - 1)
        pairs += [(hub, leaf + j) for j in range(degree - on_path)]
        leaf += degree - on_path
    return UndirectedGraph(pairs)


# degrees on and just past the bucket edges, the powers of two; leaves have
# degree 1 and a hub's bucket is ⌈log₂ degree⌉
BUCKET_EDGE_GRAPHS = {
    "caterpillar": caterpillar([2, 3, 4, 5, 8, 9, 16, 17]),
    "caterpillar-reversed": caterpillar([17, 16, 9, 8, 5, 4, 3, 2]),
    "star-8": star(8),
    "star-9": star(9),
    "star-64": star(64),
    "star-65": star(65),
    # the hub has the largest id, so at one word a sweep the first sweeps
    # hold leaves alone, and each pushes 64 bits into the one hub row
    "star-hub-last": UndirectedGraph([(i, 1_000) for i in range(300)]),
}


@pytest.mark.parametrize("name", BUCKET_EDGE_GRAPHS)
@pytest.mark.parametrize("budget", ["default", "one word", "one column"])
def test_apl_exact_at_bucket_edges(name, budget, monkeypatch):
    g = BUCKET_EDGE_GRAPHS[name]
    if budget == "one word":
        _words_per_sweep(monkeypatch, g, 1)
    elif budget == "one column":
        # every block is one node's column, and a sweep one word
        monkeypatch.setattr(robustness, "_BFS_BLOCK_BYTES", 0)
    assert intact(g).average_path_length == _nx_exact_apl(g)


def _giant(g: UndirectedGraph, strategy: RemovalStrategy, fraction: float):
    """The point of the curve of ``strategy`` at ``fraction`` and the
    giant-component mask it hands to the path-length BFS, which is stubbed
    out; the mask is None when the giant has one node and no BFS runs."""
    handed = []

    def spy(adj, giant):
        handed.append(giant.copy())
        return 0.0

    with patch.object(robustness, "_mean_distance", spy):
        (point,) = robustness_curves(g, [strategy], [fraction])[0].points
    return point, handed[0] if handed else None


# removals that leave a giant with removed neighbours in its members' rows,
# and graphs they damage so
DAMAGE = {
    "random-3": (RemovalStrategy("random", seed=3), 0.3),
    "random-4": (RemovalStrategy("random", seed=4), 0.3),
    "targeted": (RemovalStrategy("targeted"), 0.1),
}
DAMAGED_GRAPHS = {
    "caterpillar": BUCKET_EDGE_GRAPHS["caterpillar"],
    "caterpillar-reversed": BUCKET_EDGE_GRAPHS["caterpillar-reversed"],
    "growth-300": cn.generate_ba(cn.BAParams(n=300, m=2, seed=5)),
}
BUCKET_CASES = [pytest.param(name, None, id=name) for name in BUCKET_EDGE_GRAPHS] + [
    pytest.param(name, damage, id=f"{name}-{damage}")
    for name in DAMAGED_GRAPHS
    for damage in DAMAGE
]


@pytest.mark.parametrize("name, damage", BUCKET_CASES)
def test_buckets_hold_each_nodes_neighbours(name, damage, monkeypatch):
    if damage is None:
        g = BUCKET_EDGE_GRAPHS[name]
        giant = np.ones(len(g.nodes), dtype=bool)
    else:
        g = DAMAGED_GRAPHS[name]
        _, giant = _giant(g, *DAMAGE[damage])
    adj = g.adjacency
    members = np.flatnonzero(giant)
    size = len(members)
    monkeypatch.setattr(robustness, "_BFS_BLOCK_BYTES", 8 * 8)
    label, blocks = robustness._buckets(adj, giant)
    assert sorted(label[members].tolist()) == list(range(size))
    # a removed node, and so a removed neighbour, reads as the sentinel
    assert (label[~giant] == size).all()
    rows = [adj.indices[adj.indptr[u] : adj.indptr[u + 1]] for u in range(len(g.nodes))]
    if damage is not None:
        assert size >= 2 and any((~giant[rows[u]]).any() for u in members)
    covered = []
    for first, block in blocks:
        depth, width = block.shape
        assert width <= max(1, 8 // depth)
        held, buckets = [], set()
        for column in range(width):
            (node,) = np.flatnonzero(label == first + column)
            covered.append(first + column)
            row = rows[node]
            # the block is cut from the largest degree of the row's bucket,
            # ⌈log₂ degree⌉, which is at most 2 ** bucket
            bucket = (len(row) - 1).bit_length()
            assert depth <= 1 << bucket
            buckets.add(bucket)
            # member neighbours in row order, then only the sentinel
            neighbours = label[row[giant[row]]].tolist()
            held.append(len(neighbours))
            assert block[: len(neighbours), column].tolist() == neighbours
            assert (block[len(neighbours) :, column] == size).all()
        assert len(buckets) == 1
        # no row of sentinels alone is kept
        assert depth == max(held)
    assert covered == list(range(size))
    # members' labels run in a stable order of ⌈log₂ degree⌉
    buckets = np.frexp(np.diff(adj.indptr)[members] - 1)[1]
    assert label[members].tolist() == np.argsort(np.argsort(buckets, kind="stable")).tolist()


def _intact_path_length_excess(monkeypatch, sample: int | None) -> float:
    """What the intact point's path length on BA(4000, m=10) allocates past
    the labelling beyond its blocks and sweep buffers, as a share of the
    CSR's indices: exact, or over ``sample`` sampled sources."""
    g = cn.generate_ba(cn.BAParams(n=4_000, m=10, seed=1))
    adj = g.adjacency
    n = len(g.nodes)
    _, layout = robustness._buckets(adj, np.ones(n, dtype=bool))
    widest = max(block.size for _, block in layout)
    # gathered, seen, reach and frontier hold uint64 words; counts a byte each
    buffers = 8 * (widest + 3 * n + 1) + n
    held = sum(block.nbytes for _, block in layout) + buffers
    labels = robustness._component_labels
    start = []

    def labelled(k, u, v):
        out = labels(k, u, v)
        # the path length follows; the edges handed in are freed as this
        # returns
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0] - u.nbytes - v.nbytes)
        return out

    monkeypatch.setattr(robustness, "_component_labels", labelled)
    if sample is not None:
        monkeypatch.setattr(robustness, "EXACT_PATH_LENGTH_LIMIT", n - 1)
        monkeypatch.setattr(robustness, "DEFAULT_PATH_SAMPLE", sample)
    tracemalloc.start()
    try:
        assert intact(g).average_path_length is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start[0] - held) / adj.indices.nbytes


def test_intact_path_length_holds_no_second_csr(monkeypatch):
    # the path length reads the graph's own CSR through the giant's mask.
    # Past the labelling, the intact point holds the blocks and the sweep's
    # buffers, and besides them only arrays of one entry a node or a pushed
    # bit and one block's temporaries: less than half of what a copy of the
    # CSR's indices would take. 64 sampled sources, one word, keep the
    # level-1 push, Σ deg(sources) entries, small
    assert _intact_path_length_excess(monkeypatch, 64) < 0.5


def test_exact_level_one_push_holds_few_temporaries(monkeypatch):
    # in exact mode the first batch is the 64 lowest positions, the growth
    # graph's oldest hubs: 12% of the CSR's entries. The push index is built
    # in place and each temporary dropped once read, so the intact point
    # allocates 0.56x the indices' bytes past its buffers; the push's six
    # live arrays of Σ deg(batch) entries took 0.80x
    assert _intact_path_length_excess(monkeypatch, None) < 0.6


# one sweep (at most 64 nodes) of graphs with their diameter
ONE_SWEEP_GRAPHS = {
    "path-40": (UndirectedGraph([(i, i + 1) for i in range(39)]), 39),
    "cycle-40": (UndirectedGraph([(i, (i + 1) % 40) for i in range(40)]), 20),
    "star-30": (star(30), 2),
    "complete-10": (
        UndirectedGraph([(u, v) for u in range(10) for v in range(u + 1, 10)]),
        1,
    ),
}


@pytest.mark.parametrize("name", ONE_SWEEP_GRAPHS)
def test_one_sweep_pulls_levels_two_to_diameter(name, monkeypatch):
    # level 1 is the push, levels 2 .. diameter are pulled, and no empty
    # level trails the last; the path P_n pulls n - 2 levels
    g, diameter = ONE_SWEEP_GRAPHS[name]
    ran = _words_per_sweep(monkeypatch, g, None)
    assert intact(g).average_path_length == _nx_exact_apl(g)
    assert ran == [1] * (diameter - 1)


# ---------------------------------------------------------------------------
# removal curves
# ---------------------------------------------------------------------------


def test_star_targeted_attack_kills_hub_first():
    n = 11
    curve = robustness_curves(star(10), [RemovalStrategy("targeted")], [0.0, 1 / n])[0]
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
        if sorted(g.nodes)[brute.seeded_order(s, n)[0]] != 0
    )
    curve = robustness_curves(g, [RemovalStrategy("random", seed=seed)], [1 / n])[0]
    assert curve.points[0].giant_component_fraction == pytest.approx((n - 1) / n)


def test_zero_removal_is_identity():
    g = cn.generate_ba(cn.BAParams(n=60, m=2, seed=1))
    curve = robustness_curves(g, [RemovalStrategy("targeted")], [0.0])[0]
    assert curve.points[0].giant_component_fraction == 1.0
    assert curve.points[0].average_path_length == pytest.approx(
        nx.average_shortest_path_length(nx.Graph(g.edges.tolist())), rel=1e-12
    )


def test_giant_fraction_non_increasing_along_curve():
    for kind in ("random", "targeted"):
        g = cn.generate_er(cn.ERParams(n=150, p=0.03, seed=3))
        curve = robustness_curves(
            g, [RemovalStrategy(kind, seed=5)], [0.0, 0.1, 0.2, 0.4, 0.6]
        )[0]
        fracs = [p.giant_component_fraction for p in curve.points]
        assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))


def test_adaptive_differs_from_static():
    # hub plus a triangle: adaptive re-ranks after the hub falls, static does not
    edges = [(8, 1), (8, 2), (8, 3), (8, 4), (1, 2), (5, 6), (6, 7), (5, 7)]
    g = UndirectedGraph(edges)
    steps = [2 / 8]
    adaptive = robustness_curves(g, [RemovalStrategy("targeted")], steps)[0]
    static = robustness_curves(
        g, [RemovalStrategy("targeted", adaptive=False)], steps
    )[0]
    # adaptive removes 8 then 5 (triangle), static removes 8 then 1
    assert adaptive.points[0].giant_component_fraction == pytest.approx(2 / 8)
    assert static.points[0].giant_component_fraction == pytest.approx(3 / 8)


def test_targeted_tie_broken_by_ascending_id():
    # two disjoint stars with equal hub degree; the lower hub id goes first
    g = UndirectedGraph(
        [(0, i) for i in range(1, 4)] + [(10, i) for i in range(11, 14)]
    )
    curve = robustness_curves(g, [RemovalStrategy("targeted")], [1 / 8])[0]
    # removing hub 0 first leaves the second star intact
    assert curve.points[0].giant_component_fraction == pytest.approx(4 / 8)


def test_random_removal_deterministic_per_seed():
    g = cn.generate_er(cn.ERParams(n=100, p=0.05, seed=0))
    a = robustness_curves(g, [RemovalStrategy("random", seed=3)], [0.1, 0.3])[0]
    b = robustness_curves(g, [RemovalStrategy("random", seed=3)], [0.1, 0.3])[0]
    assert a == b


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 4_321])
def test_seeded_order_is_splitmix64(seed, n):
    order = robustness._seeded_order(seed, n)
    assert order.tolist() == brute.seeded_order(seed, n)


def test_seeded_order_known_values():
    # SplitMix64 seeded with 0 (the mixed seed 0 is 0) starts with
    # 0xE220A8397B1DCDAF, the generator's published first output
    assert robustness._mix64(0) == 0
    assert robustness._mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_seeded_order_is_uniform():
    # every one of the 24 orders of 4 positions, about equally often over
    # 24,000 seeds: chi-square on 23 degrees of freedom, whose 0.1% upper
    # quantile is 49.73; the seeds are fixed, so the statistic is too
    counts = {}
    for seed in range(24_000):
        order = tuple(robustness._seeded_order(seed, 4).tolist())
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 24
    chi2 = sum((c - 1_000) ** 2 / 1_000 for c in counts.values())
    assert chi2 < 49.73


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "0"])
def test_seed_outside_the_range_is_refused(seed):
    with pytest.raises(ValueError, match="seed must be an integer in"):
        RemovalStrategy("random", seed=seed)
    assert RemovalStrategy("random", seed=2**64 - 1).seed == 2**64 - 1


def test_curve_validation():
    g = star(3)
    with pytest.raises(ValueError):
        robustness_curves(g, [RemovalStrategy("random")], [])
    with pytest.raises(ValueError):
        robustness_curves(g, [RemovalStrategy("random")], [0.2, 0.1])
    with pytest.raises(ValueError):
        robustness_curves(g, [RemovalStrategy("random")], [0.5, 1.0])
    with pytest.raises(ValueError):
        RemovalStrategy("betweenness")
    with pytest.raises(ValueError):
        robustness_curves(UndirectedGraph(), [RemovalStrategy("random")], [0.1])


def test_targeted_attack_beats_random_failure_statistically():
    wins = 0
    for seed in range(5):
        g = cn.generate_ba(cn.BAParams(n=600, m=3, seed=seed))
        strategies = [RemovalStrategy("targeted"), RemovalStrategy("random", seed=seed)]
        targeted, random = robustness_curves(
            g, strategies, [0.05], compute_path_length=False
        )
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
        order = [nodes[i] for i in brute.seeded_order(strategy.seed, n)]
    elif not strategy.adaptive:
        order = sorted(nodes, key=lambda u: (-ref.degree(u), u))
    else:
        order = None
    removed, points = 0, []
    for fraction in steps:
        # the largest count whose share of n is within the fraction
        while (removed + 1) / n <= fraction:
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
    assert _same(intact(g).average_path_length, ref_apl)
    # a sample of at least every node is every node, whatever the limit
    with patch.object(robustness, "EXACT_PATH_LENGTH_LIMIT", 3):
        assert _same(intact(g).average_path_length, ref_apl)
    # one point per removal count
    steps = [k / len(g.nodes) for k in range(len(g.nodes))]
    curve = robustness_curves(g, [strategy], steps)[0]
    ref = _nx_curve(g, strategy, steps)
    assert [p.fraction_removed for p in curve.points] == [f for f, _, _ in ref]
    assert [p.giant_component_fraction for p in curve.points] == [
        giant for _, giant, _ in ref
    ]
    for point, (_, _, apl) in zip(curve.points, ref):
        assert _same(point.average_path_length, apl)


# ---------------------------------------------------------------------------
# component labelling and the giant
# ---------------------------------------------------------------------------


def _relabelled(edges: np.ndarray, n: int, rng: np.random.Generator) -> UndirectedGraph:
    """The graph on positions 0..n-1 with ids drawn at random, with gaps, so
    that id order says nothing about the edges."""
    ids = rng.choice(10 * n, size=n, replace=False)
    return UndirectedGraph(ids[edges].reshape(-1, 2), nodes=ids)


def _check_helpers(g: UndirectedGraph, seed: int, removed: int) -> np.ndarray | None:
    """``_component_labels`` on the nodes a seeded random removal of
    ``removed`` nodes leaves, against networkx, and the giant component the
    curve picks at that point.

    Returns the ids of the giant the curve hands to the path-length BFS, or
    None when it has one node and no BFS runs.
    """
    n = len(g.nodes)
    strategy = RemovalStrategy("random", seed=seed)
    keep = np.ones(n, dtype=bool)
    keep[brute.seeded_order(seed, n)[:removed]] = False
    adj = g.adjacency
    kept = g.nodes[keep]
    surviving = g.edges[keep[np.searchsorted(g.nodes, g.edges)].all(axis=1)]

    ref = nx.Graph()
    ref.add_nodes_from(kept.tolist())
    ref.add_edges_from(surviving.tolist())
    expected = np.arange(n)  # a removed node labels only itself
    for comp in nx.connected_components(ref):
        members = np.searchsorted(g.nodes, sorted(comp))
        expected[members] = members[0]
    rows = adj.rows()
    live = (rows < adj.indices) & keep[rows] & keep[adj.indices]
    labels = robustness._component_labels(n, rows[live], adj.indices[live])
    assert labels.tolist() == expected.tolist()

    # the curve's giant at the same point, read off the mask it hands the BFS
    point, giant = _giant(g, strategy, removed / n)
    ref_giant = max(nx.connected_components(ref), key=lambda c: (len(c), -min(c)))
    assert point.giant_component_fraction == len(ref_giant) / n
    if len(ref_giant) < 2:
        assert giant is None
        return None
    assert g.nodes[giant].tolist() == sorted(ref_giant)
    return g.nodes[giant]


@pytest.mark.parametrize("seed", range(3))
def test_labels_converge_on_long_shuffled_paths(seed):
    # one path through 10^4 nodes in random id order: its diameter is
    # 10^4 - 1, so labels settle only over several hooking rounds, each
    # followed by a few rounds of pointer jumping
    n = 10_000
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    g = _relabelled(np.column_stack([order[:-1], order[1:]]), n, rng)
    _check_helpers(g, seed, 0)
    # and cut into many shuffled pieces
    _check_helpers(g, seed, n // 100)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3_000),
    st.floats(0.5, 1.5),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_labels_near_percolation_threshold(n, mean_degree, removed, seed):
    # sparse random graphs around the giant-component threshold: many small
    # trees, isolates and, above it, one large component
    rng = np.random.default_rng(seed)
    p = min(1.0, mean_degree / max(n - 1, 1))
    er = cn.generate_er(cn.ERParams(n=n, p=p, seed=seed))
    g = _relabelled(er.edges, n, rng)
    _check_helpers(g, seed, int(removed * n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_equal_size_components_tie_to_smallest_id(size, pieces, seed):
    # disjoint random trees of one size: the giant is the one holding the
    # smallest id
    rng = np.random.default_rng(seed)
    n = size * pieces
    edges = [
        (start + int(rng.integers(0, i)), start + i)
        for start in range(0, n, size)
        for i in range(1, size)
    ]
    g = _relabelled(np.array(edges, dtype=np.int64).reshape(-1, 2), n, rng)
    giant = _check_helpers(g, seed, 0)
    # a one-node giant is seen only through its fraction, 1 / n
    if size > 1:
        assert len(giant) == size and giant.min() == g.nodes[0]


@st.composite
def sizes_and_steps(draw) -> tuple[int, list[float]]:
    """A node count and strictly increasing removal fractions, many of them
    at or just below a whole count's share t / n, or decimal like 0.29."""
    n = draw(st.integers(1, 60))
    shares = [
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 99).map(lambda p: p / 100),
        st.integers(0, n - 1).map(lambda t: t / n),
    ]
    if n > 1:
        shares.append(st.integers(1, n - 1).map(lambda t: math.nextafter(t / n, 0.0)))
    steps = draw(st.lists(st.one_of(*shares), min_size=1, max_size=8))
    return n, sorted(set(steps))


@settings(max_examples=150, deadline=None)
@given(sizes_and_steps())
@example((100, [0.29]))
def test_removal_count_is_the_largest_fitting_share(case):
    # 0.29 * 100 is 28.999...: the count is the largest t with t / n <= 0.29
    n, steps = case
    complete = UndirectedGraph(
        [(u, v) for u in range(n) for v in range(u + 1, n)], nodes=range(n)
    )
    curve = robustness_curves(
        complete, [RemovalStrategy("random")], steps, compute_path_length=False
    )[0]
    # on a complete graph the giant is every survivor: (n - t) / n
    assert [p.giant_component_fraction for p in curve.points] == [
        (n - max(t for t in range(n + 1) if t / n <= f)) / n for f in steps
    ]


def test_rows_read_once_per_curve(monkeypatch):
    g = cn.generate_ba(cn.BAParams(n=200, m=2, seed=3))
    calls = []
    rows = temporal.Adjacency.rows

    def counting(adj):
        calls.append(1)
        return rows(adj)

    monkeypatch.setattr(temporal.Adjacency, "rows", counting)
    random, targeted = RemovalStrategy("random"), RemovalStrategy("targeted")
    # a run reads its rows once for all its curves
    for strategies in ([random], [targeted], [random, targeted]):
        # the path length reads no rows either
        for path_length in (False, True):
            calls.clear()
            steps = [0.0, 0.1, 0.2, 0.4, 0.6]
            robustness_curves(g, strategies, steps, compute_path_length=path_length)
            assert len(calls) == 1, (strategies, path_length)


@pytest.mark.parametrize("adaptive", [True, False])
def test_intact_point_measured_once_per_run(adaptive, monkeypatch, tmp_path):
    # the 0.0 point cannot depend on the strategy, so the costliest path
    # length of a run, the whole graph's, is computed once for both curves
    g = cn.generate_ba(cn.BAParams(n=300, m=3, seed=2))
    sizes = []
    mean_distance = robustness._mean_distance

    def spy(adj, giant):
        sizes.append(int(np.count_nonzero(giant)))
        return mean_distance(adj, giant)

    monkeypatch.setattr(robustness, "_mean_distance", spy)
    strategies = [
        RemovalStrategy(kind, adaptive=adaptive) for kind in robustness.REMOVAL_KINDS
    ]
    section = pipeline.robustness_stage(tmp_path, g, strategies, pipeline.DEFAULT_STEPS)
    assert sizes.count(len(g.nodes)) == 1
    random, targeted = (section[kind]["points"] for kind in robustness.REMOVAL_KINDS)
    assert random[0]["fraction_removed"] == 0.0
    assert random[0] == targeted[0]
    assert random[0]["average_path_length"] is not None


def test_strategies_sharing_a_kind_are_refused(monkeypatch, tmp_path):
    # each kind writes one file and one report entry, so a second curve of
    # the kind would be computed and then lost; none runs
    def unreached(*args, **kwargs):
        raise AssertionError("a curve ran")

    monkeypatch.setattr(robustness, "robustness_curves", unreached)
    strategies = [
        RemovalStrategy("targeted"),
        RemovalStrategy("random", seed=1),
        RemovalStrategy("random", seed=2),
    ]
    with pytest.raises(ValueError, match="more than one strategy of kind 'random'"):
        pipeline.robustness_stage(tmp_path, star(4), strategies, [0.0])
    assert not any(tmp_path.iterdir())


# SHA-256 of both curve files for `robustness` on generate_ba(n=300, m=3,
# seed=2): the targeted files recorded before the graph moved to arrays, the
# random file when the random order moved from numpy's Generator to
# SplitMix64 keys
PINNED_BA300 = {
    "default": {
        "robustness_random.dat": "1effb898541cb6f5c067f28ae961ac66d044802f42c88b3302ccd9647da42fa0",
        "robustness_targeted.dat": "16018328a07208ac67ff5240b4cc986482ef4055d3981ab01cc140261f96b202",
    },
    "static": {
        "robustness_random.dat": "1effb898541cb6f5c067f28ae961ac66d044802f42c88b3302ccd9647da42fa0",
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
