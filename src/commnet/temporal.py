"""Temporal communication-graph model.

A message stream is held as three aligned columns sorted by timestamp:
sender and recipient are int32 positions into the stream's node registry,
the ascending int64 external ids of every node that sends or receives, and
the third column is the int64 timestamp, so a message costs 16 bytes: int32
positions, int64 stamps. Positions ascend with id, so sorting or
breaking ties by position is sorting by id, and every per-node quantity is an
array indexed by position; external ids are looked up (``node_registry[pos]``)
only where output names a node. Slicing the stream into calendar days gives
each day of a contiguous window as a slice of the columns, found by one
binary search of the days' first seconds, so no array is made per message;
daily and aggregate quantities are computed from those slices. The aggregate
network is the sorted node-id array plus its symmetric CSR adjacency over
positions (two int64 arrays), its only representation: the edge list is read
off the CSR's upper triangle when asked for. Distinct values come from a sort
plus a neighbour mask (``sorted_unique``): numpy's hash-based unique is many
times slower on large int64 inputs. Day boundaries are half-open intervals
[00:00:00, 24:00:00) of the configured clock (UTC plus an optional fixed
offset). The calendar is held here once: SECONDS_PER_DAY, the epoch days
that have a date (0001-01-01 .. 9999-12-31) and the unix seconds within
them (``_DATED_SECONDS``), the only stamps the ingest accepts. Streams,
windows and graphs are immutable after construction (their arrays are not
writeable) and safe to share across concurrent readers.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import OrderingError, WindowError

SECONDS_PER_DAY = 86_400
# rows of a per-message pass taken at a time where a whole-length temporary
# is not needed: the ingest's renumbering and the projection's pair keys
_BLOCK_ROWS = 1 << 16
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


# epoch days that have a calendar date, and the unix seconds within them
_MIN_DAY, _MAX_DAY = date_to_day(dt.date.min), date_to_day(dt.date.max)
_DATED_SECONDS = range(_MIN_DAY * SECONDS_PER_DAY, (_MAX_DAY + 1) * SECONDS_PER_DAY)

# the longest window, 100 years: a window holds a days x nodes degree table
# and one report entry per day, so a log whose dates span the calendar would
# otherwise run out of memory
MAX_WINDOW_DAYS = 36_525


def _window_too_long(days: int) -> WindowError:
    return WindowError(
        f"the window would span {days} days, more than the {MAX_WINDOW_DAYS} "
        "(100 years) allowed; check the timestamps, --window-start and --window-days"
    )


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array (flattened), ascending."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """The array itself, marked not writeable in place."""
    arr.flags.writeable = False
    return arr


class TemporalEdgeStream:
    """Timestamp-ordered message events as columns, plus the node registry.

    Message ``i`` goes from node ``node_registry[senders[i]]`` to node
    ``node_registry[recipients[i]]`` at ``timestamps[i]`` (unix seconds):
    ``senders`` and ``recipients`` hold int32 positions into
    ``node_registry``, the ascending int64 ids of every node that sends or
    receives, and ``timestamps`` is int64: 16 bytes a message. ``labels``
    optionally maps node ids to the source identifiers they were assigned
    from.

    The constructor takes the columns as node ids and maps them to positions
    once; ``from_positions`` adopts columns that are positions already.
    """

    __slots__ = ("senders", "recipients", "timestamps", "node_registry", "labels")

    def __init__(
        self,
        senders: ArrayLike,
        recipients: ArrayLike,
        timestamps: ArrayLike,
        labels: Mapping[int, str] | None = None,
    ) -> None:
        senders = np.asarray(senders, dtype=np.int64)
        recipients = np.asarray(recipients, dtype=np.int64)
        timestamps = np.array(timestamps, dtype=np.int64)
        _check_lengths(senders, recipients, timestamps)
        registry = sorted_unique(np.concatenate([senders, recipients]))
        self._adopt(
            np.searchsorted(registry, senders).astype(np.int32),
            np.searchsorted(registry, recipients).astype(np.int32),
            timestamps,
            registry,
            labels,
        )

    @classmethod
    def from_positions(
        cls,
        senders: np.ndarray,
        recipients: np.ndarray,
        timestamps: np.ndarray,
        node_registry: np.ndarray,
        labels: Mapping[int, str] | None = None,
    ) -> TemporalEdgeStream:
        """A stream over columns that already hold positions into the
        ascending ``node_registry``. int32 positions and int64 stamps and
        ids are taken over, not copied: they are marked read-only in place.
        Positions of another integer type are narrowed to int32 once."""
        senders, recipients = np.asarray(senders), np.asarray(recipients)
        timestamps, node_registry = (
            np.asarray(c, dtype=np.int64) for c in (timestamps, node_registry)
        )
        _check_lengths(senders, recipients, timestamps)
        if np.any(node_registry[1:] <= node_registry[:-1]):
            raise ValueError("node_registry must be strictly ascending")
        # checked before they are narrowed, so no position wraps into range
        for end in (senders, recipients):
            if len(end) and not 0 <= end.min() <= end.max() < len(node_registry):
                raise ValueError("a position lies outside the node registry")
        stream = cls.__new__(cls)
        stream._adopt(
            senders.astype(np.int32, copy=False),
            recipients.astype(np.int32, copy=False),
            timestamps,
            node_registry,
            labels,
        )
        return stream

    def _adopt(self, senders, recipients, timestamps, node_registry, labels) -> None:
        back = np.flatnonzero(timestamps[1:] < timestamps[:-1])
        if back.size:
            i = int(back[0]) + 1
            raise OrderingError(
                f"edge {i} breaks timestamp order "
                f"({timestamps[i]} < {timestamps[i - 1]})"
            )
        loops = np.flatnonzero(senders == recipients)
        if loops.size:
            raise ValueError(
                f"self-loop edge on node {node_registry[senders[loops[0]]]}"
            )
        self.senders = _read_only(senders)
        self.recipients = _read_only(recipients)
        self.timestamps = _read_only(timestamps)
        self.node_registry = _read_only(node_registry)
        self.labels = dict(labels) if labels is not None else None

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalEdgeStream):
            return NotImplemented
        return (
            np.array_equal(self.node_registry, other.node_registry)
            and np.array_equal(self.senders, other.senders)
            and np.array_equal(self.recipients, other.recipients)
            and np.array_equal(self.timestamps, other.timestamps)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return (
            f"TemporalEdgeStream({len(self)} edges, "
            f"{len(self.node_registry)} nodes)"
        )


def _check_lengths(*columns: np.ndarray) -> None:
    if len({len(c) for c in columns}) > 1:
        raise ValueError("sender, recipient and timestamp columns differ in length")


@dataclass(frozen=True, eq=False)
class DayWindow:
    """A time-ordered stream sliced into ``length`` contiguous calendar days.

    Window day ``t`` holds messages ``indptr[t] : indptr[t + 1]`` of the
    stream; window day 0 is epoch day ``origin``. Days without messages stay
    in the window as empty slices, so the day index is contiguous and
    ``length`` is read off the offsets.
    """

    indptr: np.ndarray  # int64, length + 1 message offsets, not writeable
    origin: int

    @property
    def length(self) -> int:
        return len(self.indptr) - 1

    def date(self, day: int) -> dt.date:
        return day_date(self.origin + day)

    def message_counts(self) -> np.ndarray:
        """Messages per window day."""
        return np.diff(self.indptr)


def slice_days(
    stream: TemporalEdgeStream,
    day_origin: dt.date | None = None,
    *,
    num_days: int | None = None,
    tz_offset_seconds: int = 0,
) -> DayWindow:
    """Find where each calendar day of one window starts in the stream.

    The window runs from ``day_origin`` (default: the first edge's day)
    through the last edge's day, or through ``day_origin + num_days - 1`` when
    ``num_days`` is given. An empty stream gives an empty window unless
    ``num_days`` is set, which then needs ``day_origin``. The stream is in
    time order, so its first and last edges bound every day, and one binary
    search of the days' first seconds finds every offset.

    Raises WindowError if an edge falls on a day with no calendar date
    (outside 0001-01-01 .. 9999-12-31), before ``day_origin`` or past the end
    of an explicit ``num_days`` window, or if the window would be longer
    than MAX_WINDOW_DAYS.
    """
    if num_days is not None and num_days < 1:
        raise ValueError("num_days must be >= 1")
    if num_days is not None and num_days > MAX_WINDOW_DAYS:
        raise _window_too_long(num_days)

    stamps = stream.timestamps
    if not len(stamps):
        if num_days is None:
            return DayWindow(_read_only(np.zeros(1, dtype=np.int64)), 0)
        if day_origin is None:
            raise ValueError("day_origin is required to window an empty stream")
        empty = np.zeros(num_days + 1, dtype=np.int64)
        return DayWindow(_read_only(empty), date_to_day(day_origin))

    first_day = day_number(int(stamps[0]), tz_offset_seconds)
    last_day = day_number(int(stamps[-1]), tz_offset_seconds)
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
    # the first second of each day, and of the day after the window, as the
    # inverse of day_number: the first stamp s with (s + offset) // 86400 == d
    starts = np.arange(origin, end_day + 2) * SECONDS_PER_DAY - tz_offset_seconds
    indptr = np.searchsorted(stamps, starts)
    return DayWindow(_read_only(indptr), origin)


class Adjacency(NamedTuple):
    """Symmetric CSR adjacency over node positions: the neighbours of
    position ``i`` are ``indices[indptr[i] : indptr[i + 1]]``, ascending, so
    a row's length is that node's degree. Both arrays are int64."""

    indptr: np.ndarray
    indices: np.ndarray

    def rows(self) -> np.ndarray:
        """The row of every entry, aligned with ``indices``, as int32: no
        graph here holds 2**31 nodes, and the rows are half the size."""
        rows = np.arange(len(self.indptr) - 1, dtype=np.int32)
        return np.repeat(rows, np.diff(self.indptr))

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once, as its (u < v) pair of positions off the upper
        triangle, in row-then-column order: two int32 arrays, like the rows."""
        rows = self.rows()
        upper = rows < self.indices
        return rows[upper], self.indices[upper].astype(np.int32)


class UndirectedGraph:
    """Simple undirected graph: no multiplicity, no self-edges.

    ``nodes`` is the sorted int64 node-id array, isolates included, and
    ``adjacency`` is the graph's symmetric CSR over positions into ``nodes``:
    row i is ``nodes[i]``. ``edges`` reads the distinct pairs off the CSR as
    node ids. All are read-only.
    """

    __slots__ = ("nodes", "adjacency")

    def __init__(self, edges: ArrayLike = (), nodes: ArrayLike = ()) -> None:
        ids = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = np.flatnonzero(ids[:, 0] == ids[:, 1])
        if loops.size:
            raise ValueError(f"self-edge on node {ids[loops[0], 0]}")
        registry = sorted_unique(np.append(np.asarray(nodes, np.int64), ids))
        self._adopt(registry, *np.searchsorted(registry, ids).T)

    @classmethod
    def _from_positions(
        cls, nodes: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> UndirectedGraph:
        """The graph of the pairs {u[i], v[i]} of positions into the
        ascending ``nodes``, which is taken over, not copied."""
        graph = cls.__new__(cls)
        graph._adopt(nodes, u, v)
        return graph

    def _adopt(self, nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        self.nodes = _read_only(nodes)
        self.adjacency = _symmetric_csr(len(nodes), u, v)

    @property
    def edges(self) -> np.ndarray:
        """The distinct pairs as node ids: (m, 2) int64, u < v, ascending."""
        return _read_only(self.nodes[np.column_stack(self.adjacency.edge_pairs())])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) and all(
            map(np.array_equal, self.adjacency, other.adjacency)
        )

    def __repr__(self) -> str:
        m = len(self.adjacency.indices) // 2
        return f"UndirectedGraph({len(self.nodes)} nodes, {m} edges)"


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray) -> Adjacency:
    """The adjacency of the distinct unordered pairs {u[i], v[i]} of
    positions in 0..n-1, u[i] != v[i].

    Entry (row, col) is the key ``row * width + col``. The distinct keys
    ``lo * width + hi`` of the pairs are found one block of _BLOCK_ROWS
    pairs at a time, then once more over the blocks' distinct keys, so no
    per-pair key array is made. The positions may be int32: each key is
    widened to int64 inside the ufuncs, before it is multiplied, since an
    int32 key overflows past 46,341 nodes. The keys and their mirrors sort
    in place once into row-then-column order; no (m, 2) array is made.
    """
    width = max(n, 1)  # n = 0 has no pairs and must not divide by zero
    blocks = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(u), _BLOCK_ROWS):
        a, b = u[lo : lo + _BLOCK_ROWS], v[lo : lo + _BLOCK_ROWS]
        key = np.minimum(a, b, dtype=np.int64)
        key *= width
        key += np.maximum(a, b, dtype=np.int64)
        blocks.append(sorted_unique(key))
    upper = sorted_unique(np.concatenate(blocks))
    del blocks
    keys = np.concatenate([upper, upper % width * width + upper // width])
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * width)
    np.remainder(keys, width, out=keys)  # the columns
    return Adjacency(_read_only(indptr), _read_only(keys))


def undirected_projection(stream: TemporalEdgeStream) -> UndirectedGraph:
    """Collapse directions and multiplicities: {u,v} present iff any message passed."""
    return UndirectedGraph._from_positions(
        stream.node_registry, stream.senders, stream.recipients
    )
