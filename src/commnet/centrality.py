"""Message-weighted degree centrality: the per-day degree table and the one
ranking rule behind every top-k list.

Degrees are int64 vectors indexed by node position, aligned with the
ascending int64 node-id array: a table row is one day, and the column sum,
summed once per table as ``DegreeTable.aggregate``, is the aggregate. They
are counted from the stream's columns (int32 positions, int64 stamps: 16
bytes a message) a day's slice at a time. Nodes rank by descending degree,
then ascending id, and only positive degrees rank: ``ranked_positions``
sorts a vector's positive cells alone, so each day's ranking holds that
day's active nodes and nothing of days x nodes size. A top-k list is a tuple
of (node id, degree) pairs."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnknownNodeError
from .temporal import DayWindow, TemporalEdgeStream

VALID_DIRECTIONS = ("out", "in", "total")
_COUNT_ROWS = 1 << 12  # message rows counted by one np.add.at call


@dataclass(frozen=True)
class DegreeTable:
    """Degree of every registered node on every day.

    ``values[t, j]`` is the degree of ``nodes[j]`` on day ``t``; ``nodes`` is
    the sorted int64 registry. The aggregate degree is the column sum.
    """

    nodes: np.ndarray  # int64, ascending
    values: np.ndarray  # int64, shape (days, nodes)

    @cached_property
    def aggregate(self) -> np.ndarray:
        """The column sum, computed on first use and shared, read-only, by
        every reader."""
        aggregate = self.values.sum(axis=0)
        aggregate.flags.writeable = False
        return aggregate

    @cached_property
    def daily_ranking(self) -> list[np.ndarray]:
        """Each day's ranked positions (``ranked_positions`` of its row; an
        empty day's is empty), computed on first use and shared by every
        reader of the table."""
        return [ranked_positions(row) for row in self.values]

    def column(self, node: int) -> np.ndarray:
        """One node's per-day degrees; UnknownNodeError if it is not registered."""
        j = bisect_left(self.nodes, node)
        if j == len(self.nodes) or self.nodes[j] != node:
            raise UnknownNodeError(f"node {node} is not in the registry")
        return self.values[:, j]


def degree_table(
    stream: TemporalEdgeStream, window: DayWindow, direction: str = "out"
) -> DegreeTable:
    """Message-weighted degree of every registered node on every window day:
    a message counts once for its sender (out), once for its recipient (in),
    or once for each (total). Each non-empty day's row counts the endpoints
    in its slice of the columns in place (``np.add.at``; ``np.bincount``
    would copy a slice of the read-only columns)."""
    if direction not in VALID_DIRECTIONS:
        raise ValueError(f"direction must be one of {VALID_DIRECTIONS}")
    if window.indptr[-1] != len(stream):
        raise ValueError("window was not sliced from this stream")
    nodes = stream.node_registry
    ends = {
        "out": (stream.senders,),
        "in": (stream.recipients,),
        "total": (stream.senders, stream.recipients),
    }[direction]
    values = np.zeros((window.length, len(nodes)), dtype=np.int64)
    bounds = window.indptr.tolist()
    for t in np.flatnonzero(window.message_counts()).tolist():
        # np.add.at casts the int32 positions to intp in a buffer of up to
        # 8,192 entries; _COUNT_ROWS rows at a time hold it to 32 KiB
        for lo in range(bounds[t], bounds[t + 1], _COUNT_ROWS):
            rows = slice(lo, min(lo + _COUNT_ROWS, bounds[t + 1]))
            for column in ends:  # senders and recipients are node positions
                np.add.at(values[t], column[rows], 1)
    return DegreeTable(nodes, values)


def ranked_positions(degrees: np.ndarray) -> np.ndarray:
    """The ranking rule on one degree vector indexed by node position: the
    positions of the positive degrees, by descending degree then ascending
    position. Positions ascend with node id, so the stable sort breaks ties
    by id."""
    positive = np.flatnonzero(degrees > 0)
    return positive[np.argsort(-degrees[positive], kind="stable")]


def top_k(
    nodes: np.ndarray, degrees: np.ndarray, k: int
) -> tuple[tuple[int, int], ...]:
    """The k highest-degree nodes of a degree vector aligned with ``nodes``,
    as (node id, degree) pairs; fewer when fewer than k degrees are positive."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # nodes may come in any order: rank them in id order
    by_id = np.argsort(nodes, kind="stable")
    top = by_id[ranked_positions(degrees[by_id])[:k]]
    return tuple(zip(nodes[top].tolist(), degrees[top].tolist()))


def degree_share(nodes: np.ndarray, degrees: np.ndarray, k: int) -> float:
    """Fraction of the total degree mass held by the top k nodes.

    Returns 0 when the total degree is 0.
    """
    top = top_k(nodes, degrees, k)
    total = int(degrees.sum())
    return sum(deg for _, deg in top) / total if total else 0.0
