"""Temporal communication-graph model.

A message stream is held as three aligned int64 columns (sender, recipient,
timestamp) sorted by timestamp. Slicing it into calendar days gives one day
index per message over a contiguous window; daily and aggregate quantities
are computed from those arrays in vectorized passes. The aggregate network
is a sorted int64 node array plus one ascending int64 array of distinct node
pairs, read through a CSR adjacency. Day boundaries are half-open intervals
[00:00:00, 24:00:00) of the configured clock (UTC plus an optional fixed
offset). Streams, windows and graphs are immutable after
construction (their arrays are not writeable) and safe to share across
concurrent readers.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike
from scipy.sparse import csr_matrix

from .errors import OrderingError, WindowError

SECONDS_PER_DAY = 86_400
_EPOCH = dt.date(1970, 1, 1)


def day_number(timestamp, tz_offset_seconds: int = 0):
    """Epoch-day index of a unix timestamp (or an array of them) under the
    configured fixed offset."""
    # floor division implements the half-open day convention exactly
    return (timestamp + tz_offset_seconds) // SECONDS_PER_DAY


def day_date(day: int) -> dt.date:
    return _EPOCH + dt.timedelta(days=day)


def date_to_day(d: dt.date) -> int:
    return (d - _EPOCH).days


# epoch days that have a calendar date (0001-01-01 .. 9999-12-31)
_MIN_DAY, _MAX_DAY = date_to_day(dt.date.min), date_to_day(dt.date.max)

# the longest window, 100 years: a window holds a days x nodes degree table
# and one report entry per day, so a log whose dates span the calendar would
# otherwise run out of memory
MAX_WINDOW_DAYS = 36_525


def _window_too_long(days: int) -> WindowError:
    return WindowError(
        f"the window would span {days} days, more than the {MAX_WINDOW_DAYS} "
        "(100 years) allowed; check the timestamps, --window-start and --window-days"
    )


def _frozen(values: ArrayLike) -> np.ndarray:
    """A read-only int64 copy."""
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


class TemporalEdgeStream:
    """Timestamp-ordered message events as columns, plus the node registry.

    Message ``i`` goes from ``senders[i]`` to ``recipients[i]`` at
    ``timestamps[i]`` (unix seconds). ``node_registry`` is the sorted union of
    senders and recipients. ``labels`` optionally maps dense node ids back to
    the source identifiers they were assigned from.
    """

    __slots__ = ("senders", "recipients", "timestamps", "node_registry", "labels")

    def __init__(
        self,
        senders: ArrayLike,
        recipients: ArrayLike,
        timestamps: ArrayLike,
        labels: Mapping[int, str] | None = None,
    ) -> None:
        self.senders = _frozen(senders)
        self.recipients = _frozen(recipients)
        self.timestamps = _frozen(timestamps)
        if not len(self.senders) == len(self.recipients) == len(self.timestamps):
            raise ValueError("sender, recipient and timestamp columns differ in length")
        back = np.flatnonzero(np.diff(self.timestamps) < 0)
        if back.size:
            i = int(back[0]) + 1
            raise OrderingError(
                f"edge {i} breaks timestamp order "
                f"({self.timestamps[i]} < {self.timestamps[i - 1]})"
            )
        loops = np.flatnonzero(self.senders == self.recipients)
        if loops.size:
            raise ValueError(f"self-loop edge on node {self.senders[loops[0]]}")
        self.node_registry = _frozen(np.union1d(self.senders, self.recipients))
        self.labels = dict(labels) if labels is not None else None

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalEdgeStream):
            return NotImplemented
        return (
            np.array_equal(self.senders, other.senders)
            and np.array_equal(self.recipients, other.recipients)
            and np.array_equal(self.timestamps, other.timestamps)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return (
            f"TemporalEdgeStream({len(self)} edges, "
            f"{len(self.node_registry)} nodes)"
        )


@dataclass(frozen=True, eq=False)
class DayWindow:
    """A stream sliced into ``length`` contiguous calendar days.

    ``day[i]`` is the window day (0 .. length-1) of message ``i``; window day
    0 is epoch day ``origin``. Days without messages stay in the window, so
    the day index is contiguous.
    """

    day: np.ndarray  # int64, one entry per message, not writeable
    origin: int
    length: int

    def date(self, day: int) -> dt.date:
        return day_date(self.origin + day)

    def message_counts(self) -> np.ndarray:
        """Messages per window day."""
        return np.bincount(self.day, minlength=self.length)


def slice_days(
    stream: TemporalEdgeStream,
    day_origin: dt.date | None = None,
    *,
    num_days: int | None = None,
    tz_offset_seconds: int = 0,
) -> DayWindow:
    """Assign every message of a stream to a calendar day of one window.

    The window runs from ``day_origin`` (default: the first edge's day)
    through the last edge's day, or through ``day_origin + num_days - 1`` when
    ``num_days`` is given. An empty stream gives an empty window unless
    ``num_days`` is set, which then needs ``day_origin``.

    Raises WindowError if an edge falls on a day with no calendar date
    (outside 0001-01-01 .. 9999-12-31), before ``day_origin`` or past the end
    of an explicit ``num_days`` window, or if the window would be longer
    than MAX_WINDOW_DAYS.
    """
    if num_days is not None and num_days < 1:
        raise ValueError("num_days must be >= 1")
    if num_days is not None and num_days > MAX_WINDOW_DAYS:
        raise _window_too_long(num_days)

    day = day_number(stream.timestamps, tz_offset_seconds)
    if not len(day):
        if num_days is None:
            return DayWindow(_frozen(day), 0, 0)
        if day_origin is None:
            raise ValueError("day_origin is required to window an empty stream")
        return DayWindow(_frozen(day), date_to_day(day_origin), num_days)

    first_day, last_day = int(day[0]), int(day[-1])
    for d in (first_day, last_day):
        if not _MIN_DAY <= d <= _MAX_DAY:
            raise WindowError(f"an edge falls on epoch day {d}, which has no date")
    origin = first_day if day_origin is None else date_to_day(day_origin)
    if origin > first_day:
        raise WindowError(
            f"day_origin {day_date(origin)} is after the first edge's day "
            f"{day_date(first_day)}"
        )
    end_day = last_day if num_days is None else origin + num_days - 1
    if end_day - origin >= MAX_WINDOW_DAYS:
        raise _window_too_long(end_day - origin + 1)
    if last_day > end_day:
        raise WindowError(
            f"edges extend to {day_date(last_day)}, past the "
            f"{num_days}-day window ending {day_date(end_day)}"
        )
    return DayWindow(_frozen(day - origin), origin, end_day - origin + 1)


class UndirectedGraph:
    """Simple undirected graph: no multiplicity, no self-edges.

    ``nodes`` is the sorted int64 node array, isolates included. ``edges`` is
    an (m, 2) int64 array of distinct pairs stored as u < v, in ascending
    order. Both are read-only.
    """

    __slots__ = ("nodes", "edges")

    def __init__(self, edges: ArrayLike = (), nodes: ArrayLike = ()) -> None:
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise ValueError(f"self-edge on node {pairs[loops[0], 0]}")
        self.nodes = _frozen(np.union1d(np.array(nodes, dtype=np.int64), pairs))
        self.edges = _frozen(_distinct_pairs(self.nodes, pairs[:, 0], pairs[:, 1]))

    def adjacency_matrix(self) -> csr_matrix:
        """Symmetric 0/1 adjacency over node positions: row i is ``nodes[i]``,
        and its length is that node's degree."""
        n = len(self.nodes)
        ends = np.searchsorted(self.nodes, self.edges)
        rows = np.concatenate([ends[:, 0], ends[:, 1]])
        cols = np.concatenate([ends[:, 1], ends[:, 0]])
        ones = np.ones(len(rows), dtype=np.int8)
        return csr_matrix((ones, (rows, cols)), shape=(n, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) and np.array_equal(
            self.edges, other.edges
        )

    def __repr__(self) -> str:
        return f"UndirectedGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def _distinct_pairs(nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distinct unordered pairs as ascending (m, 2) rows with u < v.

    Pairs are deduplicated as one integer key per pair over positions in the
    sorted ``nodes``, which is several times faster than a row-wise unique.
    """
    n = len(nodes)
    lo = np.searchsorted(nodes, np.minimum(u, v))
    hi = np.searchsorted(nodes, np.maximum(u, v))
    keys = np.unique(lo * n + hi)
    return np.column_stack([nodes[keys // n], nodes[keys % n]])


def undirected_projection(stream: TemporalEdgeStream) -> UndirectedGraph:
    """Collapse directions and multiplicities: {u,v} present iff any message passed."""
    nodes = stream.node_registry
    return UndirectedGraph(
        _distinct_pairs(nodes, stream.senders, stream.recipients), nodes
    )
