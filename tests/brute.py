"""Independent brute-force oracle for a fixed 5-node, 3-day micro corpus.

Everything here is computed straight from the raw rows with plain Python, with
no imports from the package under test, so package results can be checked
against an implementation-free path.

Node ids follow first appearance in timestamp order, matching the ingest
contract: alice=0, bob=1, carol=2, dave=3, erin=4.

``seeded_order`` is the seeded random order of the robustness module, one
SplitMix64 step at a time on Python ints.
"""
from __future__ import annotations

import math
from datetime import date

DAY = 86_400
BASE_DATE = date(2001, 5, 1)
_BASE = (BASE_DATE - date(1970, 1, 1)).days * DAY

# (sender, recipient, unix timestamp); two rows share a timestamp on purpose
RAW_ROWS = [
    ("alice", "bob", _BASE + 100),
    ("alice", "bob", _BASE + 200),
    ("alice", "carol", _BASE + 300),
    ("bob", "alice", _BASE + 300),
    ("dave", "alice", _BASE + 86_000),
    ("alice", "bob", _BASE + DAY + 50),
    ("alice", "carol", _BASE + DAY + 60),
    ("alice", "carol", _BASE + DAY + 70),
    ("carol", "bob", _BASE + DAY + 80),
    ("dave", "erin", _BASE + DAY + 90),
    ("bob", "alice", _BASE + 2 * DAY + 10),
    ("bob", "alice", _BASE + 2 * DAY + 20),
    ("bob", "alice", _BASE + 2 * DAY + 30),
    ("erin", "dave", _BASE + 2 * DAY + 40),
]
NAMES = ["alice", "bob", "carol", "dave", "erin"]
IDS = {name: i for i, name in enumerate(NAMES)}
N_DAYS = 3


def log_bytes() -> bytes:
    return ("\n".join(f"{s},{r},{t}" for s, r, t in RAW_ROWS) + "\n").encode()


def rows_of_day(day: int):
    return [(s, r) for s, r, t in RAW_ROWS if (t - _BASE) // DAY == day]


def degrees(day: int | None, direction: str) -> dict[int, int]:
    """Message-counted degree per node id; day=None means the aggregate."""
    rows = (
        [(s, r) for s, r, _ in RAW_ROWS] if day is None else rows_of_day(day)
    )
    out = {i: 0 for i in range(len(NAMES))}
    for s, r in rows:
        if direction in ("out", "total"):
            out[IDS[s]] += 1
        if direction in ("in", "total"):
            out[IDS[r]] += 1
    return out


def top_k(values: dict[int, int], k: int) -> list[tuple[int, int]]:
    items = [(node, deg) for node, deg in values.items() if deg > 0]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return items[:k]


def degree_share(values: dict[int, int], k: int) -> float:
    total = sum(values.values())
    if total == 0:
        return 0.0
    return sum(deg for _, deg in top_k(values, k)) / total


def pearson(x, y) -> float | None:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def consecutive_correlations(direction: str = "out") -> list[float | None]:
    vals = []
    for day in range(N_DAYS - 1):
        a = degrees(day, direction)
        b = degrees(day + 1, direction)
        vals.append(
            pearson(
                [a[i] for i in range(len(NAMES))],
                [b[i] for i in range(len(NAMES))],
            )
        )
    return vals


def node_values(node: int, direction: str = "out") -> list[int]:
    return [degrees(day, direction)[node] for day in range(N_DAYS)]


def series_stats(values) -> tuple[float, float, float | None]:
    """(mean, population stddev, cv) of a degree series."""
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    return mean, std, (std / mean if mean else None)


def overlap_count(day_a: int, day_b: int, k: int, direction: str = "out") -> int:
    ids_a = {node for node, _ in top_k(degrees(day_a, direction), k)}
    ids_b = {node for node, _ in top_k(degrees(day_b, direction), k)}
    return len(ids_a & ids_b)


def mean_overlap(k: int, direction: str = "out") -> float:
    pcts = []
    for a in range(N_DAYS):
        for b in range(a + 1, N_DAYS):
            pcts.append(overlap_count(a, b, k, direction) / k)
    return sum(pcts) / len(pcts)


def top_frequency(k: int, direction: str = "out") -> dict[int, int]:
    freq: dict[int, int] = {}
    for day in range(N_DAYS):
        for node, _ in top_k(degrees(day, direction), k):
            freq[node] = freq.get(node, 0) + 1
    return freq


def consistency_count(k: int, direction: str = "out") -> int:
    freq = top_frequency(k, direction)
    ordered = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    daily = {node for node, _ in ordered[:k]}
    agg = {node for node, _ in top_k(degrees(None, direction), k)}
    return len(daily & agg)


def _splitmix64_mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def seeded_order(seed: int, n: int) -> list[int]:
    """0 .. n - 1 sorted by their keys: SplitMix64 seeded with the mixed
    ``seed``, whose state steps by 0x9E3779B97F4A7C15 before each output."""
    state = _splitmix64_mix(seed)
    keys = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        keys.append(_splitmix64_mix(state))
    return sorted(range(n), key=lambda i: (keys[i], i))
