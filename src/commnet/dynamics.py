"""Temporal prominence dynamics.

Day-to-day correlation of degree vectors, per-node degree series with a
coefficient-of-variation stability classification, and overlap statistics
between top-k rank lists (pairwise across days, and daily versus aggregate).
Every analysis reads the same node x day degree table (centrality.DegreeTable),
and every ranking follows centrality's one ranking rule.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

from .centrality import DegreeTable, RankList, ranked_positions, top_k


class Stability(str, Enum):
    STABLE = "stable"
    FLUCTUATING = "fluctuating"
    INACTIVE = "inactive"


@dataclass(frozen=True)
class DegreeSeries:
    """Per-day degree of one node over the whole window, zeros included.

    The coefficient of variation uses the population standard deviation and is
    None (undefined) when the mean is zero.
    """

    node: int
    direction: str
    values: tuple[int, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.values))

    @property
    def cv(self) -> float | None:
        mu = self.mean
        if mu == 0:
            return None
        return self.stddev / mu


@dataclass(frozen=True)
class PairCorrelation:
    """Correlation slot for one consecutive-day pair.

    ``excluded`` marks pairs where either day had no messages; ``r`` is None
    for excluded pairs and for defined pairs with zero variance.
    """

    day_a: int
    day_b: int
    r: float | None
    excluded: bool = False


@dataclass(frozen=True)
class CorrelationSeries:
    pairs: tuple[PairCorrelation, ...]
    policy: str

    @property
    def values(self) -> tuple[float | None, ...]:
        """r per non-excluded pair (None where undefined)."""
        return tuple(p.r for p in self.pairs if not p.excluded)

    @property
    def defined_values(self) -> tuple[float, ...]:
        return tuple(p.r for p in self.pairs if not p.excluded and p.r is not None)


@dataclass(frozen=True)
class OverlapResult:
    """Shared membership between two rank lists of the same requested size."""

    k: int
    count: int

    @property
    def percentage(self) -> float:
        return self.count / self.k


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Product-moment correlation, or None when either input has zero variance."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = syy = sxy = 0.0
    for a, b in zip(x, y):
        dx = a - mx
        dy = b - my
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def consecutive_day_correlation(
    table: DegreeTable, *, active_only: bool = False
) -> CorrelationSeries:
    """Correlate degree vectors of each consecutive day pair.

    Vectors are indexed by the full node registry with zeros for inactive
    nodes; ``active_only`` restricts each pair to nodes active on either day.
    Pairs where either day is empty are flagged excluded rather than
    correlated against an all-zero vector.
    """
    if len(table.values) < 2:
        raise ValueError("need at least 2 days")
    rows = table.values.tolist()
    pairs: list[PairCorrelation] = []
    for t in range(len(rows) - 1):
        a, b = rows[t], rows[t + 1]
        if not any(a) or not any(b):
            pairs.append(PairCorrelation(t, t + 1, None, excluded=True))
            continue
        if active_only:
            a, b = zip(*((x, y) for x, y in zip(a, b) if x > 0 or y > 0))
        if len(a) < 2:
            pairs.append(PairCorrelation(t, t + 1, None))
            continue
        pairs.append(PairCorrelation(t, t + 1, pearson(a, b)))
    policy = "active-union" if active_only else "full-registry"
    return CorrelationSeries(tuple(pairs), policy)


def node_series(table: DegreeTable, node: int) -> DegreeSeries:
    """Per-day degree values of one node, zeros for inactive and empty days."""
    if len(table.values) == 0:
        raise ValueError("need at least 1 day")
    return DegreeSeries(node, table.direction, tuple(table.column(node).tolist()))


def classify_stability(s: DegreeSeries, cv_threshold: float = 1.0) -> Stability:
    """inactive when the series mean is 0, stable when CV <= threshold, else fluctuating."""
    cv = s.cv
    if cv is None:
        return Stability.INACTIVE
    return Stability.STABLE if cv <= cv_threshold else Stability.FLUCTUATING


def rank_overlap(a: RankList, b: RankList) -> OverlapResult:
    """Shared node count between two rank lists built with the same k."""
    if a.k != b.k:
        raise ValueError(f"rank lists built with different k: {a.k} vs {b.k}")
    return OverlapResult(a.k, len(a.node_ids & b.node_ids))


def _daily_orderings(table: DegreeTable) -> list[list[int]]:
    """Full positive-degree ranking per non-empty day; top-k lists are prefixes."""
    return [
        table.nodes[ranked].tolist()
        for ranked in ranked_positions(table.nodes, table.values)
        if len(ranked)
    ]


def validate_k_values(k_values: Sequence[int]) -> None:
    """Raise ValueError unless the k values are non-empty, positive and
    strictly ascending."""
    if not k_values or k_values[0] < 1:
        raise ValueError("k_values must be non-empty and positive")
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise ValueError("k_values must be strictly ascending")


def overlap_vs_k(
    table: DegreeTable, k_values: Sequence[int]
) -> dict[int, float | None]:
    """Mean pairwise top-k overlap percentage across all non-empty day pairs.

    Returns None for a k when fewer than two non-empty days exist.
    """
    validate_k_values(k_values)
    orderings = _daily_orderings(table)
    result: dict[int, float | None] = {}
    for k in k_values:
        tops = [frozenset(o[:k]) for o in orderings]
        if len(tops) < 2:
            result[k] = None
            continue
        overlaps = [len(ta & tb) / k for ta, tb in combinations(tops, 2)]
        result[k] = sum(overlaps) / len(overlaps)
    return result


def daily_vs_aggregate_consistency(
    table: DegreeTable, k: int
) -> tuple[OverlapResult, dict[int, int]]:
    """Compare the k most-frequent daily-top nodes against the aggregate top-k.

    Returns the overlap plus the frequency table: for each node that ever made
    a daily top-k, the number of days it did (ordered by descending frequency,
    then ascending id).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    freq: Counter[int] = Counter()
    for ranked in _daily_orderings(table):
        freq.update(ranked[:k])
    ordered = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    daily_ids = {node for node, _ in ordered[:k]}
    agg_ids = top_k(table.nodes, table.values.sum(axis=0), k).node_ids
    return OverlapResult(k, len(daily_ids & agg_ids)), dict(ordered)
