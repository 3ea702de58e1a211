"""Message-weighted degree centrality, the per-day degree table and
deterministic top-k ranking."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UnknownNodeError
from .temporal import AggregateGraph, DailySnapshot

VALID_DIRECTIONS = ("out", "in", "total")


@dataclass(frozen=True)
class DegreeMap:
    """Degree value for every registered node, zero entries included."""

    values: Mapping[int, int]
    direction: str

    @property
    def total(self) -> int:
        return sum(self.values.values())


@dataclass(frozen=True)
class RankList:
    """Top-k nodes by degree; ties broken by ascending node id.

    ``k`` is the requested size; ``entries`` may be shorter when fewer nodes
    qualify (zero-degree nodes are excluded unless requested).
    """

    k: int
    entries: tuple[tuple[int, int], ...]

    @property
    def node_ids(self) -> frozenset[int]:
        return frozenset(node for node, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def degree(g: DailySnapshot | AggregateGraph, direction: str = "out") -> DegreeMap:
    """Message-weighted degree of every registered node in a snapshot or
    aggregate graph: a pair with multiplicity m contributes m."""
    if direction not in VALID_DIRECTIONS:
        raise ValueError(f"direction must be one of {VALID_DIRECTIONS}")
    values: dict[int, int] = {u: 0 for u in g.nodes}
    for (u, v), mult in g.edges.items():
        if direction != "in":
            values[u] += mult
        if direction != "out":
            values[v] += mult
    return DegreeMap(values, direction)


@dataclass(frozen=True)
class DegreeTable:
    """Degree of every registered node on every day.

    ``values[t, j]`` is the degree of ``nodes[j]`` on day ``t``; columns follow
    ascending node id. The aggregate degree is the column sum.
    """

    nodes: tuple[int, ...]
    values: np.ndarray  # int64, shape (days, nodes)
    direction: str

    def _as_map(self, row: np.ndarray) -> DegreeMap:
        return DegreeMap(dict(zip(self.nodes, row.tolist())), self.direction)

    def day_map(self, day: int) -> DegreeMap:
        return self._as_map(self.values[day])

    def aggregate_map(self) -> DegreeMap:
        return self._as_map(self.values.sum(axis=0))

    def column(self, node: int) -> np.ndarray:
        """One node's per-day degrees; UnknownNodeError if it is not registered."""
        j = bisect_left(self.nodes, node)
        if j == len(self.nodes) or self.nodes[j] != node:
            raise UnknownNodeError(f"node {node} is not in the registry")
        return self.values[:, j]


def degree_table(
    snapshots: Sequence[DailySnapshot], direction: str = "out"
) -> DegreeTable:
    """One row per snapshot, built from one ``degree`` call per day."""
    nodes = tuple(sorted(set().union(*(s.nodes for s in snapshots))))
    values = np.zeros((len(snapshots), len(nodes)), dtype=np.int64)
    for t, snap in enumerate(snapshots):
        day = degree(snap, direction).values
        values[t] = [day.get(u, 0) for u in nodes]
    return DegreeTable(nodes, values, direction)


def top_k(d: DegreeMap, k: int, *, include_zeros: bool = False) -> RankList:
    """The k highest-degree nodes, ordered by descending degree then ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    items = [
        (node, deg)
        for node, deg in d.values.items()
        if include_zeros or deg > 0
    ]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return RankList(k, tuple(items[:k]))


def degree_share(d: DegreeMap, top: RankList) -> float:
    """Fraction of the total degree mass held by the ranked nodes.

    Returns 0 when the total degree is 0.
    """
    for node, deg in top.entries:
        if d.values.get(node) != deg:
            raise ValueError("rank list was not derived from this degree map")
    total = d.total
    if total == 0:
        return 0.0
    return sum(deg for _, deg in top.entries) / total
