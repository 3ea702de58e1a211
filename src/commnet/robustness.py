"""Failure and attack tolerance under cumulative node removal.

Tracks the giant-component fraction (relative to the original node count, so
curves from different strategies are comparable) and the average shortest-path
length within the surviving giant component. Removal is either seeded-random
or targeted at the highest-degree node; the targeted attack recomputes degrees
after every removal by default, which is the stronger variant.

A curve builds the graph's symmetric CSR adjacency once and removes nodes by
clearing an alive mask. Components come from scipy's connected_components on
the alive rows and columns; adaptive targeting decrements the degrees of the
removed node's neighbours, read off its CSR row.

Average path length comes from a level-synchronous, bit-parallel BFS from
many sources at once (multi-source BFS, Then et al. 2014, PVLDB 8(4):449):
each source owns one bit of a row of uint64 words per node, and one level
ORs the frontier words of every node's neighbours. Distances are summed as
exact integers. Every node is a source up to EXACT_PATH_LENGTH_LIMIT nodes;
larger components use a seeded sample of sources (DEFAULT_PATH_SAMPLE of
them), trading a standard sampling error for tractability.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .temporal import UndirectedGraph

EXACT_PATH_LENGTH_LIMIT = 50_000
DEFAULT_PATH_SAMPLE = 1_024
# bytes of the gathered neighbour-frontier block of one BFS level; it sets
# how many 64-source words one sweep carries. Small enough that the block and
# the per-node words stay in a core's L2 cache: a block that spills to the
# shared cache makes each level wait on memory traffic, slower and far less
# steady from run to run
_BFS_BLOCK_BYTES = 256 << 10


@dataclass(frozen=True)
class RemovalStrategy:
    """How nodes are removed.

    kind "random" removes in a seeded uniform order; "targeted" removes the
    highest-degree node first, ties broken by ascending node id. Adaptive
    targeting recomputes degrees after each removal; the static variant ranks
    once on the intact graph.
    """

    kind: str
    seed: int = 0
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("random", "targeted"):
            raise ValueError("kind must be 'random' or 'targeted'")


@dataclass(frozen=True)
class RobustnessPoint:
    fraction_removed: float
    giant_component_fraction: float
    average_path_length: float | None


@dataclass(frozen=True)
class RobustnessCurve:
    strategy: RemovalStrategy
    original_n: int
    points: tuple[RobustnessPoint, ...]


def _largest_component(adj: csr_matrix, alive: np.ndarray) -> np.ndarray:
    """Positions of the largest component among the ascending positions
    ``alive``; ties go to the component holding the smallest id."""
    _, labels = connected_components(adj[alive][:, alive], directed=False)
    sizes = np.bincount(labels)
    # alive is ascending, so a label's first index is its smallest id
    _, first = np.unique(labels, return_index=True)
    return alive[labels == labels[first[sizes == sizes.max()].min()]]


def giant_component_fraction(g: UndirectedGraph, original_n: int) -> float:
    """Largest-component size relative to the pre-removal node count."""
    n = len(g.nodes)
    if original_n < n:
        raise ValueError("original_n is smaller than the current node count")
    if not n or original_n == 0:
        return 0.0
    return len(_largest_component(g.adjacency_matrix(), np.arange(n))) / original_n


def average_path_length(
    g: UndirectedGraph,
    *,
    exact_limit: int = EXACT_PATH_LENGTH_LIMIT,
    sample_size: int = DEFAULT_PATH_SAMPLE,
    seed: int = 0,
) -> float | None:
    """Mean shortest-path distance over node pairs of the largest component.

    Returns None (undefined) when the largest component has fewer than 2
    nodes; never 0 or an infinity stand-in.
    """
    if not len(g.nodes):
        return None
    adj = g.adjacency_matrix()
    comp = _largest_component(adj, np.arange(len(g.nodes)))
    if len(comp) < 2:
        return None
    return _mean_distance(adj[comp][:, comp], exact_limit, sample_size, seed)


def _mean_distance(
    graph: csr_matrix, exact_limit: int, sample_size: int, seed: int
) -> float:
    """Mean distance from the sources to every other node of a connected graph."""
    size = graph.shape[0]
    if size <= exact_limit:
        sources = np.arange(size)
    else:
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(size, size=min(sample_size, size), replace=False))
    indptr, indices = graph.indptr, graph.indices
    starts = indptr[:-1]
    words = min(-(-len(sources) // 64), max(1, _BFS_BLOCK_BYTES // (8 * len(indices))))
    # one set of buffers serves every level of every sweep, so the loop
    # allocates nothing; a final partial sweep leaves its spare bits at zero
    gathered = np.empty((len(indices), words), dtype=np.uint64)
    seen, reach, frontier = (np.empty((size, words), dtype=np.uint64) for _ in range(3))
    counts = np.empty((size, words), dtype=np.uint8)
    total = 0
    for start in range(0, len(sources), 64 * words):
        batch = sources[start : start + 64 * words]
        bit = np.arange(len(batch), dtype=np.uint64)
        seen.fill(0)
        seen[batch, bit // 64] = np.uint64(1) << (bit % 64)
        np.copyto(frontier, seen)
        level = 0
        while True:
            level += 1
            # CSR columns are in range; mode "clip" writes straight into out,
            # where the default "raise" would copy through a temporary
            np.take(frontier, indices, axis=0, out=gathered, mode="clip")
            # the graph is one connected component of >= 2 nodes, so no CSR
            # row is empty; reduceat would return a wrong value for one
            np.bitwise_or.reduceat(gathered, starts, axis=0, out=reach)
            np.invert(seen, out=frontier)
            frontier &= reach
            found = int(np.bitwise_count(frontier, out=counts).sum())
            if not found:
                break
            total += level * found
            seen |= frontier
    return total / (len(sources) * (size - 1))


def robustness_curve(
    g: UndirectedGraph,
    strategy: RemovalStrategy,
    steps: Sequence[float],
    *,
    compute_path_length: bool = True,
    path_exact_limit: int = EXACT_PATH_LENGTH_LIMIT,
    path_sample_size: int = DEFAULT_PATH_SAMPLE,
    path_seed: int = 0,
) -> RobustnessCurve:
    """Remove cumulative fractions of the original nodes and measure decay.

    At each step, nodes are removed until floor(step * original_n) are gone,
    then the giant-component fraction (of the original n) and the surviving
    giant component's average path length are recorded.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("steps must be non-empty")
    if any(not 0.0 <= f < 1.0 for f in steps):
        raise ValueError("fractions must lie in [0, 1)")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("fractions must be strictly increasing")
    n = len(g.nodes)
    if not n:
        raise ValueError("graph has no nodes")

    # nodes are addressed by position; positions ascend with node id
    adj = g.adjacency_matrix()
    degrees = np.diff(adj.indptr)
    alive = np.ones(n, dtype=bool)

    order: np.ndarray | None
    if strategy.kind == "random":
        order = np.random.default_rng(strategy.seed).permutation(n)
    elif not strategy.adaptive:
        order = np.lexsort((g.nodes, -degrees))
    else:
        order = None  # picked per removal from current degrees

    removed = 0
    points: list[RobustnessPoint] = []
    for fraction in steps:
        target = int(fraction * n)
        if order is not None:
            alive[order[removed:target]] = False
        else:
            for _ in range(removed, target):
                # argmax returns the first maximum, i.e. the smallest node id;
                # a removed node's degree stays negative, below every live one
                u = int(np.argmax(degrees))
                degrees[adj.indices[adj.indptr[u] : adj.indptr[u + 1]]] -= 1
                degrees[u] = -1
                alive[u] = False
        removed = target
        comp = _largest_component(adj, np.flatnonzero(alive))
        apl = None
        if compute_path_length and len(comp) >= 2:
            apl = _mean_distance(
                adj[comp][:, comp], path_exact_limit, path_sample_size, path_seed
            )
        points.append(RobustnessPoint(fraction, len(comp) / n, apl))
    return RobustnessCurve(strategy, n, tuple(points))
