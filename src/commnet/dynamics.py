"""Temporal prominence dynamics.

Day-to-day correlation of degree vectors, per-node degree series with a
coefficient-of-variation stability classification, and top-k overlap
statistics (the mean pairwise overlap across days, and daily versus
aggregate), counted from how many days each node ranks in the top k.
Every analysis reads the same node x day degree table (centrality.DegreeTable),
and every ranking follows centrality's one ranking rule: a day's top k is a
prefix of the table's ``daily_ranking``, which ranks each day's positive
cells once per table, and the aggregate's is ``centrality.top_k`` of the
table's ``aggregate``, its column sum taken once per table. The statistics
come from exact integer sums, so no result depends on how Python adds
floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .centrality import DegreeTable, ranked_positions, top_k


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

    values: tuple[int, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        n, values = len(self.values), self.values  # √(nΣv² − (Σv)²)/n on ints
        return math.sqrt(n * sum(v * v for v in values) - sum(values) ** 2) / n

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
    def defined_values(self) -> tuple[float, ...]:
        return tuple(p.r for p in self.pairs if not p.excluded and p.r is not None)


@dataclass(frozen=True)
class OverlapResult:
    """Shared membership between two top-k lists of the same requested size."""

    k: int
    count: int

    @property
    def percentage(self) -> float:
        return self.count / self.k


def consecutive_day_correlation(table: DegreeTable) -> CorrelationSeries:
    """Correlate degree vectors of each consecutive day pair.

    Vectors span the full node registry, zeros for inactive nodes; pairs where
    either day is empty are flagged excluded. From exact integer sums over n
    nodes, r = (nΣab − ΣaΣb) / √((nΣa² − (Σa)²)(nΣb² − (Σb)²)), taken as the
    signed root of one int/int quotient, so |r| never exceeds 1.
    """
    values = table.values
    if len(values) < 2:
        raise ValueError("need at least 2 days")
    n = values.shape[1]
    s = values.sum(axis=1).tolist()  # degrees are counts: 0 only on an empty day
    sq = np.einsum("ij,ij->i", values, values).tolist()
    cross = np.einsum("ij,ij->i", values[:-1], values[1:]).tolist()
    # Python ints from here on, so the n·Σ terms cannot overflow int64
    var = [n * q - a * a for a, q in zip(s, sq)]
    pairs = []
    for t, ab in enumerate(cross):
        cov, var_ab = n * ab - s[t] * s[t + 1], var[t] * var[t + 1]
        # an empty day has zero variance, so excluded pairs get None too
        r = math.copysign(math.sqrt(cov * cov / var_ab), cov) if var_ab else None
        pairs.append(PairCorrelation(t, t + 1, r, not (s[t] and s[t + 1])))
    return CorrelationSeries(tuple(pairs), "full-registry")


def node_series(table: DegreeTable, node: int) -> DegreeSeries:
    """Per-day degree values of one node, zeros for inactive and empty days."""
    if len(table.values) == 0:
        raise ValueError("need at least 1 day")
    return DegreeSeries(tuple(table.column(node).tolist()))


def classify_stability(s: DegreeSeries, cv_threshold: float = 1.0) -> Stability:
    """inactive when the series mean is 0, stable when CV <= threshold, else fluctuating."""
    cv = s.cv
    if cv is None:
        return Stability.INACTIVE
    return Stability.STABLE if cv <= cv_threshold else Stability.FLUCTUATING


def _top_k_day_counts(table: DegreeTable, k_values: Sequence[int]) -> list[np.ndarray]:
    """For each k, the number of days on which each node (aligned with
    ``table.nodes``) ranks in that day's top k. The table ranks its days
    once, for every caller."""
    # the empty first entry keeps a table with no days concatenable
    ranked = [np.empty(0, np.intp), *table.daily_ranking]
    size = len(table.nodes)
    return [
        np.bincount(np.concatenate([r[:k] for r in ranked]), minlength=size)
        for k in k_values
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

    A node in the top k on f of the D non-empty days is shared by C(f, 2)
    day pairs, so the mean is Σ C(f, 2) / (k · C(D, 2)), one int/int
    division. Returns None for a k when fewer than two non-empty days exist.
    A day is non-empty when its ranking is.
    """
    validate_k_values(k_values)
    days = sum(1 for ranked in table.daily_ranking if len(ranked))
    if days < 2:
        return dict.fromkeys(k_values)
    return {
        k: int((f * (f - 1)).sum()) // 2 / (k * days * (days - 1) // 2)
        for k, f in zip(k_values, _top_k_day_counts(table, k_values))
    }


def daily_vs_aggregate_consistency(
    table: DegreeTable, k: int
) -> tuple[OverlapResult, dict[int, int]]:
    """Compare the k most-frequent daily-top nodes against the aggregate top-k.

    Returns the overlap plus the frequency table: for each node that ever made
    a daily top-k, the number of days it did, ordered by the ranking rule
    (descending frequency, then ascending id).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    (freq,) = _top_k_day_counts(table, [k])
    ranked = ranked_positions(freq)
    ordered = dict(zip(table.nodes[ranked].tolist(), freq[ranked].tolist()))
    daily_ids = set(table.nodes[ranked[:k]].tolist())
    agg_ids = {node for node, _ in top_k(table.nodes, table.aggregate, k)}
    return OverlapResult(k, len(daily_ids & agg_ids)), ordered
