"""Failure and attack tolerance under cumulative node removal.

Tracks the giant-component fraction (relative to the original node count, so
curves from different strategies are comparable) and the average shortest-path
length within the surviving giant component. Removal is either seeded-random
or targeted at the highest-degree node; the targeted attack recomputes degrees
after every removal by default, which is the stronger variant.

A curve is the only way to these numbers; its 0.0 point measures the intact
graph. It reads the graph's own representation, the symmetric CSR adjacency
built once with the graph, and removes nodes by clearing an alive mask;
adaptive targeting decrements the degrees of the removed node's neighbours,
read off its CSR row. The curve reads its edge list, one (u < v) pair of
positions per edge, off the CSR once. Each point keeps the pairs whose ends
both survive and labels components over the original positions by hooking
plus pointer jumping (Shiloach & Vishkin 1982, J. Algorithms 3:57), a few
vectorized numpy rounds per point; a removed node labels only itself. scipy's
connected_components would do the same, but importing scipy.sparse.csgraph
costs every process about 0.45 s, more than a whole growth-model curve at
3,000 nodes. Only the giant component is induced as a CSR of its own, for
the path-length BFS.

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

from .temporal import Adjacency, UndirectedGraph

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
            raise ValueError(f"kind must be 'random' or 'targeted', not {self.kind!r}")


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


def _induced(adj: Adjacency, keep: np.ndarray) -> Adjacency:
    """The subgraph on the positions where the mask ``keep`` holds, renumbered
    in ascending order."""
    position = np.cumsum(keep) - 1
    rows = adj.rows()
    both = keep[rows] & keep[adj.indices]
    size = np.count_nonzero(keep)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(position[rows[both]], minlength=size), out=indptr[1:])
    # the renumbering keeps order, so each row's columns stay ascending
    return Adjacency(indptr, position[adj.indices[both]])


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each of ``n`` positions' component under the edges ``(u[i], v[i])``,
    labelled by its smallest position; a position on no edge labels itself.

    Every round hooks each root onto the smallest root across its edges, then
    jumps pointers until each points at a root. A pointer only ever moves to
    a smaller position, so a component's one remaining root is its smallest.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        open_ = ru != rv
        if not open_.any():
            return root
        # an edge whose ends share a root stays closed, so drop it
        u, v, ru, rv = u[open_], v[open_], ru[open_], rv[open_]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _mean_distance(graph: Adjacency) -> float:
    """Mean distance from the sources to every other node of a connected graph."""
    size = len(graph.indptr) - 1
    if size <= EXACT_PATH_LENGTH_LIMIT:
        sources = np.arange(size)
    else:
        rng = np.random.default_rng(0)
        sample = min(DEFAULT_PATH_SAMPLE, size)
        sources = np.sort(rng.choice(size, size=sample, replace=False))
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


def validate_steps(steps: Sequence[float]) -> None:
    """Raise ValueError unless the removal fractions are non-empty, strictly
    increasing and in [0, 1)."""
    if not steps:
        raise ValueError("steps must be non-empty")
    if any(not 0.0 <= f < 1.0 for f in steps):
        raise ValueError("fractions must lie in [0, 1)")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("fractions must be strictly increasing")


def robustness_curve(
    g: UndirectedGraph,
    strategy: RemovalStrategy,
    steps: Sequence[float],
    *,
    compute_path_length: bool = True,
) -> RobustnessCurve:
    """Remove cumulative fractions of the original nodes and measure decay.

    At each step, nodes are removed until the largest count t with
    t / original_n <= step are gone, then the giant-component fraction (of
    the original n) and the surviving giant component's average path length
    are recorded.
    """
    steps = list(steps)
    validate_steps(steps)
    n = len(g.nodes)
    if not n:
        raise ValueError("graph has no nodes")

    # nodes are addressed by position; positions ascend with node id
    adj = g.adjacency
    degrees = np.diff(adj.indptr)
    alive = np.ones(n, dtype=bool)
    # every edge once, as its (u < v) pair of positions; each point labels
    # the pairs whose ends both survive
    rows = adj.rows()
    upper = rows < adj.indices
    eu, ev = rows[upper], adj.indices[upper]
    del rows, upper

    order: np.ndarray | None
    if strategy.kind == "random":
        order = np.random.default_rng(strategy.seed).permutation(n)
    elif not strategy.adaptive:
        order = np.argsort(-degrees, kind="stable")
    else:
        order = None  # picked per removal from current degrees

    removed = 0
    points: list[RobustnessPoint] = []
    for fraction in steps:
        # fraction * n can round a whole count down (0.29 * 100 is
        # 28.999...), so one step either way reaches the largest fitting t
        target = int(fraction * n)
        if (target + 1) / n <= fraction:
            target += 1
        elif target / n > fraction:
            target -= 1
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
        both = alive[eu] & alive[ev]
        labels = _component_labels(n, eu[both], ev[both])
        # a removed node labels only itself and a label is its component's
        # smallest position, so argmax's first maximum over the live labels
        # is the tie rule: the largest component holding the smallest id
        giant = alive & (labels == np.argmax(np.bincount(labels[alive], minlength=n)))
        size = int(np.count_nonzero(giant))
        apl = None
        if compute_path_length and size >= 2:
            apl = _mean_distance(_induced(adj, giant))
        points.append(RobustnessPoint(fraction, size / n, apl))
    return RobustnessCurve(strategy, n, tuple(points))
