"""Failure and attack tolerance under cumulative node removal.

Tracks the giant-component fraction (relative to the original node count, so
curves from different strategies are comparable) and the average shortest-path
length within the surviving giant component. Removal is either seeded-random
or targeted at the highest-degree node; the targeted attack recomputes degrees
after every removal by default, which is the stronger variant.

``robustness_curves`` is the only way to these numbers: it runs every
strategy of a run over one graph, and a step that removes no node measures
the intact graph, once for all the curves, since no strategy changes it. It
reads the graph's own representation, the symmetric CSR adjacency built once
with the graph, and removes nodes by clearing an alive mask; adaptive
targeting decrements the degrees of the removed node's neighbours, read off
its CSR row. A run reads its edge list, one (u < v) pair of positions per
edge, off the CSR once for all its curves. Each point keeps the pairs whose
ends both survive and labels components over the original positions by
hooking plus pointer jumping (Shiloach & Vishkin 1982, J. Algorithms 3:57),
a few vectorized numpy rounds per point; a removed node labels only itself.
scipy's
connected_components would do the same, but importing scipy.sparse.csgraph
costs every process about 0.45 s, more than a whole growth-model curve at
3,000 nodes. Only the giant component is induced as a CSR of its own, for
the path-length BFS.

Average path length comes from a level-synchronous, bit-parallel BFS from
many sources at once (multi-source BFS, Then et al. 2014, PVLDB 8(4):449):
each source owns one bit of a row of uint64 words per node. Level 1 is a
push: each source's bit is ORed into its neighbours' rows, Σ deg(sources)
bits. Every later level is a pull (the push/pull split of Beamer, Asanović &
Patterson 2012, SC'12): each node ORs its neighbours' frontier words. For
the pull, nodes are relabelled by degree bucket ⌈log₂ degree⌉, and each
bucket holds its neighbour labels as a (largest degree × nodes) block, short
rows padded with a label that reads an always-zero frontier row; a level is
one gather and one column-wise OR per block. The graph is one connected
component, so a sweep stops on the level that finds the last of its
sources' size − 1 others, with no empty level after. The blocks are gathered
one at a time into one reused buffer, so a sweep carries as many 64-source
words as fit the widest block in _BFS_BLOCK_BYTES. Distances are summed
as exact integers. Every node is a source up to EXACT_PATH_LENGTH_LIMIT
nodes; larger components use a seeded sample of sources (DEFAULT_PATH_SAMPLE
of them), trading a standard sampling error for tractability.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .temporal import Adjacency, UndirectedGraph

EXACT_PATH_LENGTH_LIMIT = 50_000
DEFAULT_PATH_SAMPLE = 1_024
# bytes of the one gathered neighbour-frontier block that a BFS level holds
# at a time; a sweep carries as many 64-source words as fit it over the
# widest block's padded entries, and a larger graph, at one word, gathers
# each bucket in pieces of at most this size. Small enough that a gathered
# block and the per-node words stay in a core's L2 cache: a block that spills
# to the shared cache makes each level wait on memory traffic, slower and far
# less steady from run to run
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
    indptr, indices = adj
    kept = np.repeat(keep, np.diff(indptr))
    kept &= keep[indices]
    # a row's kept count is the difference of the mask's running count at
    # its ends; a uint32 count may wrap, but a row holds fewer than 2**32
    # entries, so the wrapped difference is exact
    running = np.zeros(len(indices) + 1, dtype=np.uint32)
    np.cumsum(kept, dtype=np.uint32, out=running[1:])
    counts = np.diff(running[indptr])[keep]
    del running
    sub_indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    position = np.cumsum(keep) - 1
    # the renumbering keeps order, so each row's columns stay ascending
    return Adjacency(sub_indptr, position[indices[kept]])


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


def _buckets(graph: Adjacency) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The neighbour rows of a connected graph, relabelled and padded into
    degree buckets.

    Nodes get new labels in a stable order of ⌈log₂ degree⌉, and ``label``
    maps a position to its label, so a bucket's nodes hold consecutive
    labels. Each bucket is cut into ``(D, c)`` blocks of neighbour labels,
    one column per node and D rows, D being the bucket's largest degree; a
    shorter column is padded with the sentinel label ``size``. A block has
    at most ``_BFS_BLOCK_BYTES // (8 * D)`` columns, and at least one.
    Returns ``label`` and every block with the label of its first column.
    """
    indptr, indices = graph
    size = len(indptr) - 1
    degrees = np.diff(indptr)
    # frexp's exponent of d - 1 is its bit length, ⌈log₂ d⌉ for every d >= 1
    bucket = np.frexp(degrees - 1)[1]
    order = np.argsort(bucket, kind="stable")
    label = np.empty(size, dtype=np.int64)
    label[order] = np.arange(size)
    blocks = []
    start = 0
    for end in np.cumsum(np.bincount(bucket)).tolist():
        if end > start:
            depth = np.arange(degrees[order[start:end]].max())[:, None]
            width = max(1, _BFS_BLOCK_BYTES // (8 * len(depth)))
            for first in range(start, end, width):
                rows = order[first : min(first + width, end)]
                # an entry past a row's end reads the next row, or clips at
                # the last entry, and is overwritten with the sentinel
                block = label[indices.take(indptr[rows] + depth, mode="clip")]
                block[depth >= degrees[rows]] = size
                blocks.append((first, block))
        start = end
    return label, blocks


def _pull(frontier: np.ndarray, blocks: list[tuple[np.ndarray, ...]]) -> None:
    """One pulled BFS level. Each of ``blocks`` is a ``(block, gathered,
    reach)`` triple: the frontier rows of the block's labels are gathered,
    then ORed down each column into the block's nodes' rows of ``reach``."""
    for block, gathered, reach in blocks:
        # every label is in range, the sentinel included, so mode "clip"
        # writes straight into gathered, where the default "raise" would copy
        # through a temporary
        frontier.take(block, axis=0, out=gathered, mode="clip")
        np.bitwise_or.reduce(gathered, axis=0, out=reach)


def _mean_distance(graph: Adjacency) -> float:
    """Mean distance from the sources to every other node of a connected graph."""
    size = len(graph.indptr) - 1
    if size <= EXACT_PATH_LENGTH_LIMIT:
        sources = np.arange(size)
    else:
        rng = np.random.default_rng(0)
        sample = min(DEFAULT_PATH_SAMPLE, size)
        sources = np.sort(rng.choice(size, size=sample, replace=False))
    indptr, indices = graph
    degrees = np.diff(indptr)
    label, layout = _buckets(graph)
    # the blocks are gathered one after another into one reused buffer, so
    # the widest block alone sets how many words fit the budget
    widest = max(block.size for _, block in layout)
    words = min(-(-len(sources) // 64), max(1, _BFS_BLOCK_BYTES // (8 * widest)))
    # one set of buffers serves every level of every sweep, so no level
    # allocates; a final partial sweep leaves its spare bits at zero
    gathered = np.empty(widest * words, dtype=np.uint64)
    seen, reach = (np.empty((size, words), dtype=np.uint64) for _ in range(2))
    blocks = [
        (
            block,
            gathered[: block.size * words].reshape(*block.shape, words),
            reach[first : first + block.shape[1]],
        )
        for first, block in layout
    ]
    counts = np.empty((size, words), dtype=np.uint8)
    # the padding's sentinel reads frontier's extra last row, which stays zero
    frontier = np.zeros((size + 1, words), dtype=np.uint64)
    new = frontier[:size]
    total = 0
    for start in range(0, len(sources), 64 * words):
        batch = sources[start : start + 64 * words]
        bit = np.arange(len(batch), dtype=np.uint64)
        word, one = (bit // 64).astype(np.int64), np.uint64(1) << (bit % 64)
        seen.fill(0)
        seen[label[batch], word] = one
        # level 1 is a push of each source's bit into its neighbours' rows;
        # every (source, neighbour) pair is a new bit, Σ deg(batch) of them.
        # No bit is pushed twice into one word, so adding the bits ORs them,
        # and add.at has a fast indexed loop that bitwise_or.at lacks
        fanout = degrees[batch]
        pushed = int(fanout.sum())
        entries = np.repeat(indptr[batch] + fanout - np.cumsum(fanout), fanout)
        entries += np.arange(pushed)
        new.fill(0)
        np.add.at(
            frontier.reshape(-1),
            label[indices[entries]] * words + np.repeat(word, fanout),
            np.repeat(one, fanout),
        )
        seen |= new
        total += pushed
        # the graph is connected, so every source finds the other size - 1
        # nodes within size - 1 levels, and the sweep ends on the level that
        # finds the last of them, with no empty level after
        remaining = len(batch) * (size - 1) - pushed
        for level in range(2, size):
            if not remaining:
                break
            _pull(frontier, blocks)
            np.invert(seen, out=new)
            new &= reach
            found = int(np.bitwise_count(new, out=counts).sum())
            total += level * found
            remaining -= found
            seen |= new
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


def robustness_curves(
    g: UndirectedGraph,
    strategies: Iterable[RemovalStrategy],
    steps: Sequence[float],
    *,
    compute_path_length: bool = True,
) -> list[RobustnessCurve]:
    """Remove cumulative fractions of the original nodes and measure decay,
    one curve per strategy, in the order given.

    At each step, nodes are removed until the largest count t with
    t / original_n <= step are gone, then the giant-component fraction (of
    the original n) and the surviving giant component's average path length
    are recorded. A step that removes no node measures the intact graph,
    which no strategy changes, so it is measured once for every curve.
    """
    steps = list(steps)
    validate_steps(steps)
    n = len(g.nodes)
    if not n:
        raise ValueError("graph has no nodes")

    # nodes are addressed by position; positions ascend with node id
    adj = g.adjacency
    # every edge once, as its (u < v) pair of positions; each point labels
    # the pairs whose ends both survive
    rows = adj.rows()
    upper = rows < adj.indices
    eu, ev = rows[upper], adj.indices[upper]
    del rows, upper

    def measure(alive: np.ndarray) -> tuple[float, float | None]:
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
        return size / n, apl

    intact: tuple[float, float | None] | None = None
    curves = []
    for strategy in strategies:
        degrees = np.diff(adj.indptr)
        alive = np.ones(n, dtype=bool)
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
                    # argmax returns the first maximum, i.e. the smallest node
                    # id; a removed node's degree stays negative, below every
                    # live one
                    u = int(np.argmax(degrees))
                    degrees[adj.indices[adj.indptr[u] : adj.indptr[u + 1]]] -= 1
                    degrees[u] = -1
                    alive[u] = False
            removed = target
            if target:
                measured = measure(alive)
            else:
                # no strategy changes the intact graph: measure it once
                measured = intact = intact or measure(alive)
            points.append(RobustnessPoint(fraction, *measured))
        curves.append(RobustnessCurve(strategy, n, tuple(points)))
    return curves
