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
with the graph. Each strategy is an order of removal computed up front, as
far as the last step reaches, and each step clears the next run of that
order in an alive mask; adaptive targeting decrements the degrees of each
removed node's neighbours, read off its CSR row. A run takes its edge
list, one (u < v) pair of int32 positions per edge, from the adjacency
(``Adjacency.edge_pairs``) once for all its curves. Each point keeps the
pairs whose ends both survive and labels components over the original
positions by hooking plus pointer jumping (Shiloach & Vishkin 1982,
J. Algorithms 3:57), a few vectorized numpy rounds per point; a removed
node labels only itself. scipy's connected_components would do the same,
but importing scipy.sparse.csgraph costs every process about 0.45 s, more
than a whole growth-model curve at 3,000 nodes. The path-length BFS reads
the same CSR through the giant's mask, with no second copy of the graph.

The seeded random order of n positions is the stable argsort of the first
n outputs of SplitMix64 (Steele, Lea & Flood 2014, OOPSLA, "Fast splittable
pseudorandom number generators") seeded with the mixed seed. With the
finalizer mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2**64, position i's key
is mix(mix(seed) + (i + 1)·0x9E3779B97F4A7C15). mix is a bijection and the
increment is odd, so the n keys are distinct and the sort meets no tie. A
random removal follows the seed's order, and a sampled path length takes
as sources the members at the first DEFAULT_PATH_SAMPLE positions of seed
0's order over the component. The order is 64-bit integer arithmetic
alone, so it depends on no numpy version, and this module never loads
numpy's random module, which with the secrets, hashlib and OpenSSL it
imports costs a process about 5.5 MB. A seed is an integer in [0, 2**64).

Average path length comes from a level-synchronous, bit-parallel BFS from
many sources at once (multi-source BFS, Then et al. 2014, PVLDB 8(4):449):
each source owns one bit of a row of uint64 words per giant member. Level
1 is a push: each source's bit is ORed into its member neighbours' rows.
Every later level is a pull (the push/pull split of Beamer, Asanović &
Patterson 2012, SC'12): each member ORs its neighbours' frontier words.
For the pull, members are relabelled by degree bucket ⌈log₂ degree⌉, and
every other position maps to a sentinel label that reads an always-zero
frontier row. Each bucket holds its members' CSR rows, relabelled, as a
(largest degree × members) block; a stable partition moves each column's
sentinels, its removed neighbours and padding, below its members, and the
rows of sentinels alone are cut. A level is one gather and one column-wise
OR per block. The giant is connected, so a sweep stops on the level that
finds the last of its sources' size − 1 others, with no empty level
after. The blocks are gathered one at a time into one reused buffer, so a
sweep carries as many 64-source words as fit the widest block in
_BFS_BLOCK_BYTES. Distances are summed as exact integers. Every member is
a source up to EXACT_PATH_LENGTH_LIMIT members; larger components use a
seeded sample of sources (DEFAULT_PATH_SAMPLE of them), trading a standard
sampling error for tractability.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .temporal import Adjacency, UndirectedGraph

REMOVAL_KINDS = ("random", "targeted")  # analyze draws one curve of each
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
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment


def validate_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, 2**64)."""
    if not (isinstance(seed, int) and 0 <= seed <= _MASK64):
        raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")


def _mix64(z):
    """SplitMix64's finalizer, on a Python int below 2**64 or, wrapping
    silently, on a uint64 array."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _seeded_order(seed: int, n: int) -> np.ndarray:
    """The positions 0 .. n - 1 in the order of their SplitMix64 keys under
    ``seed`` (see the module docstring)."""
    # the seed is mixed as a Python int: a uint64 scalar product that wraps
    # warns, where an array's wraps silently
    keys = np.arange(1, n + 1, dtype=np.uint64)
    keys *= _GOLDEN_GAMMA
    keys += _mix64(seed)
    return np.argsort(_mix64(keys), kind="stable")


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
        if self.kind not in REMOVAL_KINDS:
            kinds = " or ".join(map(repr, REMOVAL_KINDS))
            raise ValueError(f"kind must be {kinds}, not {self.kind!r}")
        validate_seed(self.seed)


@dataclass(frozen=True)
class RobustnessPoint:
    fraction_removed: float
    giant_component_fraction: float
    average_path_length: float | None


@dataclass(frozen=True)
class RobustnessCurve:
    strategy: RemovalStrategy
    points: tuple[RobustnessPoint, ...]


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each of ``n`` positions' component under the edges ``(u[i], v[i])``,
    labelled by its smallest position; a position on no edge labels itself.
    The labels have the positions' integer type.

    Every round hooks each root onto the smallest root across its edges, then
    jumps pointers until each points at a root. A pointer only ever moves to
    a smaller position, so a component's one remaining root is its smallest.
    """
    root = np.arange(n, dtype=u.dtype)
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


def _buckets(
    adj: Adjacency, giant: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The neighbour rows of the connected component of ``adj`` where the
    mask ``giant`` holds, relabelled and padded into degree buckets.

    Members get new labels in a stable order of ⌈log₂ degree⌉, the degree
    in ``adj``, so a bucket's members hold consecutive labels; ``label``
    maps a member's position to its label and any other to the sentinel
    ``size``. Each bucket is cut into ``(D, c)`` blocks of neighbour labels,
    one column per member, D at most the bucket's largest degree, and at
    most ``_BFS_BLOCK_BYTES // (8 * D)`` columns, at least one. A column
    holds its member's member neighbours in row order, then the sentinel,
    which stands for a removed neighbour or pads a short row. Returns
    ``label`` and every block with the label of its first column.
    """
    indptr, indices = adj
    members = np.flatnonzero(giant)
    size = len(members)
    degrees = np.diff(indptr)
    # frexp's exponent of d - 1 is its bit length, ⌈log₂ d⌉ for every d >= 1
    bucket = np.frexp(degrees[members] - 1)[1]
    order = members[np.argsort(bucket, kind="stable")]
    label = np.full(len(giant), size)
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
                # a stable partition moves each column's sentinels below its
                # members, in row order, and the rows of sentinels alone go
                sentinel = block == size
                kept = len(depth) - int(sentinel.sum(axis=0).min())
                moved = np.argsort(sentinel, axis=0, kind="stable")[:kept]
                blocks.append((first, np.take_along_axis(block, moved, axis=0)))
        start = end
    return label, blocks


def _pull(frontier: np.ndarray, blocks: list[tuple[np.ndarray, ...]]) -> None:
    """One pulled BFS level. Each of ``blocks`` is a ``(block, gathered,
    reach)`` triple: the frontier rows of the block's labels are gathered,
    then ORed down each column into the block's members' rows of ``reach``."""
    for block, gathered, reach in blocks:
        # every label is in range, the sentinel included, so mode "clip"
        # writes straight into gathered, where the default "raise" would copy
        # through a temporary
        frontier.take(block, axis=0, out=gathered, mode="clip")
        np.bitwise_or.reduce(gathered, axis=0, out=reach)


def _mean_distance(adj: Adjacency, giant: np.ndarray) -> float:
    """Mean distance from the sources to every other member of the connected
    component of ``adj`` where the mask ``giant`` holds."""
    sources = np.flatnonzero(giant)
    size = len(sources)
    if size > EXACT_PATH_LENGTH_LIMIT:
        sources = sources[np.sort(_seeded_order(0, size)[:DEFAULT_PATH_SAMPLE])]
    indptr, indices = adj
    degrees = np.diff(indptr)
    label, layout = _buckets(adj, giant)
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
    # the sentinel reads frontier's extra last row, which stays zero
    frontier = np.zeros((size + 1, words), dtype=np.uint64)
    new = frontier[:size]
    total = 0
    for start in range(0, len(sources), 64 * words):
        batch = sources[start : start + 64 * words]
        bit = np.arange(len(batch), dtype=np.uint64)
        word, one = (bit // 64).astype(np.int64), np.uint64(1) << (bit % 64)
        seen.fill(0)
        seen[label[batch], word] = one
        # level 1 is a push of each source's bit into its member neighbours'
        # rows, dropping the removed ones, whose label is the sentinel; every
        # (source, member neighbour) pair is a new bit. No bit is pushed twice
        # into one word, so adding the bits ORs them, and add.at has a fast
        # indexed loop that bitwise_or.at lacks. The push index is built in
        # place from the batch's CSR entries, and each temporary is dropped
        # once read, so about two arrays of Σ deg(batch) entries are live
        fanout = degrees[batch]
        targets = np.repeat(indptr[batch] + fanout - np.cumsum(fanout), fanout)
        targets += np.arange(len(targets))
        np.take(indices, targets, out=targets, mode="clip")
        np.take(label, targets, out=targets, mode="clip")
        member = targets < size
        pushed = int(np.count_nonzero(member))
        targets *= words
        targets += np.repeat(word, fanout)
        targets = targets[member]
        bits = np.repeat(one, fanout)[member]
        del member
        new.fill(0)
        np.add.at(frontier.reshape(-1), targets, bits)
        del targets, bits
        seen |= new
        total += pushed
        # the component is connected, so every source finds the other size - 1
        # members within size - 1 levels, and the sweep ends on the level that
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


def _removal_order(strategy: RemovalStrategy, adj: Adjacency, count: int) -> np.ndarray:
    """The positions ``strategy`` removes from the graph of ``adj``, in
    removal order: all of them, or the adaptive attack's first ``count``."""
    n = len(adj.indptr) - 1
    if strategy.kind == "random":
        return _seeded_order(strategy.seed, n)
    degrees = np.diff(adj.indptr)
    if not strategy.adaptive:
        return np.argsort(-degrees, kind="stable")
    order = np.empty(count, dtype=np.int64)
    for i in range(count):
        # argmax returns the first maximum, i.e. the smallest node id; a
        # removed node's degree stays negative, below every live one
        u = int(np.argmax(degrees))
        degrees[adj.indices[adj.indptr[u] : adj.indptr[u + 1]]] -= 1
        degrees[u] = -1
        order[i] = u
    return order


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
    t / n <= step are gone, then the giant-component fraction (of
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
    # each point labels the (u < v) pairs whose ends both survive; as int32
    # they take half the memory, and so does every labelling's copy
    eu, ev = adj.edge_pairs()

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
            apl = _mean_distance(adj, giant)
        return size / n, apl

    # a step's count is the largest t with t / n <= step; t / n ascends with t
    counts = np.searchsorted(np.arange(n + 1) / n, steps, side="right") - 1
    intact: tuple[float, float | None] | None = None
    curves = []
    for strategy in strategies:
        order = _removal_order(strategy, adj, int(counts[-1]))
        alive = np.ones(n, dtype=bool)
        removed = 0
        points: list[RobustnessPoint] = []
        for fraction, count in zip(steps, counts.tolist()):
            alive[order[removed:count]] = False
            removed = count
            if count:
                measured = measure(alive)
            else:
                # no strategy changes the intact graph: measure it once
                measured = intact = intact or measure(alive)
            points.append(RobustnessPoint(fraction, *measured))
        curves.append(RobustnessCurve(strategy, tuple(points)))
    return curves
