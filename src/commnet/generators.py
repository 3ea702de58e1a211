"""Synthetic ground-truth networks and corpora.

The growth-with-preferential-attachment model produces heavy-tailed degree
distributions with a known exponent; the uniform random-pair model is the
Poisson-degree baseline; the planted-hub corpus is a temporal message stream
(int32 positions, int64 stamps: 16 bytes a message) with a controlled
prominence hierarchy for end-to-end pipeline checks.

All generators draw from numpy's PCG64 generator seeded with the given
integer, so a given seed reproduces the same object bit for bit across runs
and platforms (the determinism contract downstream code relies on).
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .temporal import (
    SECONDS_PER_DAY,
    TemporalEdgeStream,
    UndirectedGraph,
    date_to_day,
)


@dataclass(frozen=True)
class BAParams:
    """Growth model: n final nodes, m edges per arrival, complete seed of m0 nodes."""

    n: int
    m: int
    m0: int | None = None  # defaults to m
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.n > self.seed_size >= self.m >= 1):
            raise ValueError(
                f"require n > m0 >= m >= 1, got n={self.n} "
                f"m0={self.seed_size} m={self.m}"
            )

    @property
    def seed_size(self) -> int:
        return self.m if self.m0 is None else self.m0


@dataclass(frozen=True)
class ERParams:
    """Independent edges: each unordered pair present with probability p."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


@dataclass(frozen=True)
class HubCorpusParams:
    """Temporal corpus with planted hubs.

    Each day, every hub sends Poisson(hub_rate) messages and every background
    node sends Poisson(background_rate) messages, each to a recipient chosen
    uniformly among the other nodes. Hubs are nodes 0..hubs-1.
    """

    nodes: int = 151
    days: int = 131
    hubs: int = 10
    hub_rate: float = 40.0
    background_rate: float = 1.0
    seed: int = 0
    start_date: dt.date = dt.date(2000, 1, 1)

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("need at least 2 nodes so recipients exist")
        if self.days < 0:
            raise ValueError("days must be >= 0")
        if not 0 <= self.hubs <= self.nodes:
            raise ValueError("hubs must be between 0 and nodes")
        if not np.isfinite([self.hub_rate, self.background_rate]).all():
            raise ValueError("rates must be finite numbers")
        if self.hub_rate <= 0 or self.background_rate <= 0:
            raise ValueError("rates must be > 0")


def generate_ba(p: BAParams) -> UndirectedGraph:
    """Grow a graph by preferential attachment.

    Starts from a complete graph on m0 nodes; each arriving node attaches m
    edges to distinct existing nodes chosen with probability proportional to
    current degree. Attachment samples uniformly from the list of all edge
    endpoints (each edge contributes both ends, so a node appears once per
    unit of degree) and re-draws on duplicates within one arrival.

    The final edge count is exactly m0*(m0-1)/2 + (n-m0)*m.
    """
    rng = np.random.default_rng(p.seed)
    m0 = p.seed_size
    edges: list[tuple[int, int]] = [
        (i, j) for i in range(m0) for j in range(i + 1, m0)
    ]
    endpoints: list[int] = []
    for u, v in edges:
        endpoints.append(u)
        endpoints.append(v)
    for source in range(m0, p.n):
        targets: set[int] = set()
        if endpoints:
            while len(targets) < p.m:
                cand = endpoints[int(rng.integers(len(endpoints)))]
                if cand not in targets:
                    targets.add(cand)
        else:
            # m0 == 1 seed has no edges yet; the first arrival picks uniformly
            while len(targets) < p.m:
                targets.add(int(rng.integers(source)))
        for t in sorted(targets):  # fixed append order keeps draws reproducible
            edges.append((t, source))
            endpoints.append(t)
            endpoints.append(source)
    return UndirectedGraph(edges, nodes=range(p.n))


def generate_er(p: ERParams) -> UndirectedGraph:
    """Sample each of the n*(n-1)/2 unordered pairs independently with probability p."""
    rng = np.random.default_rng(p.seed)
    total = p.n * (p.n - 1) // 2
    if p.p <= 0.0 or total == 0:
        return UndirectedGraph((), nodes=range(p.n))
    picked = _bernoulli_indices(rng, total, p.p)
    i, j = _unrank_pairs(picked, p.n)
    return UndirectedGraph(np.column_stack([i, j]), nodes=range(p.n))


def _bernoulli_indices(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Indices of successes among `total` Bernoulli(p) trials.

    Uses geometric gaps between successes, so the cost scales with the number
    of successes rather than the number of trials.
    """
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks: list[np.ndarray] = []
    cur = -1
    while True:
        # 1.2x the expected remaining successes, capped to bound memory
        expect = min(max(16, int((total - cur) * p * 1.2) + 1), 1 << 22)
        gaps = rng.geometric(p, size=expect).astype(np.int64)
        idx = cur + np.cumsum(gaps)
        if idx[-1] >= total:
            chunks.append(idx[idx < total])
            break
        chunks.append(idx)
        cur = int(idx[-1])
    return np.concatenate(chunks)


def _unrank_pairs(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map lexicographic pair indices to (i, j) with i < j.

    Pair index w counts pairs (0,1), (0,2), ..., (0,n-1), (1,2), ... so that
    C(i) = i*(2n-i-1)/2 pairs precede row i.
    """
    w = w.astype(np.int64)
    a = 2 * n - 1
    i = np.floor((a - np.sqrt(a * a - 8.0 * w)) / 2.0).astype(np.int64)
    # one integer correction pass guards the float boundary
    before = i * (2 * n - i - 1) // 2
    i = np.where(before > w, i - 1, i)
    after = (i + 1) * (2 * n - i - 2) // 2
    i = np.where(after <= w, i + 1, i)
    before = i * (2 * n - i - 1) // 2
    j = w - before + i + 1
    return i, j


def generate_hub_corpus(p: HubCorpusParams) -> TemporalEdgeStream:
    """Seeded temporal message stream with planted hubs (see HubCorpusParams).

    Timestamps are uniform within each day; the stream is sorted, with ties
    keeping generation order (ascending sender id within a day).
    """
    rng = np.random.default_rng(p.seed)
    origin_day = date_to_day(p.start_date)
    rates = np.full(p.nodes, p.background_rate, dtype=float)
    rates[: p.hubs] = p.hub_rate
    # the per-day parts of the senders, recipients and stamps columns
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    for d in range(p.days):
        day_start = (origin_day + d) * SECONDS_PER_DAY
        counts = rng.poisson(rates)
        total = int(counts.sum())
        if total == 0:
            continue
        senders = np.repeat(np.arange(p.nodes), counts)
        recipients = rng.integers(0, p.nodes - 1, size=total)
        # shift draws at or above the sender so recipients are uniform over others
        recipients = np.where(recipients >= senders, recipients + 1, recipients)
        stamps = day_start + rng.integers(0, SECONDS_PER_DAY, size=total)
        order = np.argsort(stamps, kind="stable")
        for part, column in zip(parts, (senders, recipients, stamps)):
            part.append(column[order])
    if not parts[0]:
        return TemporalEdgeStream([], [], [])
    # one column at a time, each dropping its parts once it is whole
    columns = []
    for part in parts:
        columns.append(np.concatenate(part))
        part.clear()
    senders, recipients, stamps = columns
    # ids are 0..nodes-1, so one lookup table maps each to its int32 position
    # among the ids that take part
    present = np.zeros(p.nodes, dtype=bool)
    present[senders] = True
    present[recipients] = True
    position = np.cumsum(present, dtype=np.int32) - 1
    return TemporalEdgeStream.from_positions(
        position[senders], position[recipients], stamps, np.flatnonzero(present)
    )
