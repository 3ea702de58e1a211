"""Delimited message-log parsing into a temporal edge stream.

Input is one message-recipient event per line with three logical columns
(sender, recipient, timestamp); multi-recipient messages must arrive
pre-exploded to one row per recipient. Text is UTF-8, lines end with LF, and a
trailing CR is stripped. Node ids are dense integers assigned in timestamp
order of first appearance; the original identifiers are kept as labels on the
stream.
"""
from __future__ import annotations

import datetime as dt
import re
from array import array
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import IngestError
from .temporal import TemporalEdgeStream

_COLUMNS = ("sender", "recipient", "timestamp")


@dataclass(frozen=True)
class LogFormatConfig:
    """Shape of the delimited log: column order, timestamp format, delimiter, header."""

    columns: tuple[str, str, str] = _COLUMNS
    timestamp_format: str = "unix"  # "unix" (integer seconds) or "iso8601"
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        if sorted(self.columns) != sorted(_COLUMNS):
            raise ValueError(f"columns must be a permutation of {_COLUMNS}")
        if len(self.delimiter.encode("utf-8")) != 1:
            raise ValueError("delimiter must be a single byte")
        if self.timestamp_format not in ("unix", "iso8601"):
            raise ValueError("timestamp_format must be 'unix' or 'iso8601'")


@dataclass(frozen=True)
class IngestReport:
    """Accounting of one parse: every input row lands in exactly one bucket."""

    rows_read: int
    accepted: int
    self_loops_dropped: int
    malformed_rows: tuple[tuple[int, str], ...]  # (line number, reason)
    duplicates_collapsed: int = 0

    def __post_init__(self) -> None:
        total = (
            self.accepted
            + self.self_loops_dropped
            + len(self.malformed_rows)
            + self.duplicates_collapsed
        )
        if total != self.rows_read:
            raise ValueError(
                f"report accounting mismatch: {total} classified vs "
                f"{self.rows_read} rows read"
            )

    @property
    def malformed(self) -> int:
        return len(self.malformed_rows)


_UNIX_SECONDS = re.compile(r"[+-]?[0-9]+")  # ASCII only; int() alone takes "1_000"
_EPOCH_UTC = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_SECOND = dt.timedelta(seconds=1)
# unix seconds that have a calendar date (0001-01-01 .. 9999-12-31 UTC)
_DATED_SECONDS = range(
    (dt.datetime.min.replace(tzinfo=dt.timezone.utc) - _EPOCH_UTC) // _SECOND,
    (dt.datetime.max.replace(tzinfo=dt.timezone.utc) - _EPOCH_UTC) // _SECOND + 1,
)


def _parse_timestamp(raw: str, fmt: str) -> int:
    if fmt == "unix":
        if not _UNIX_SECONDS.fullmatch(raw):
            raise ValueError(f"not unix seconds: {raw!r}")
        value = int(raw)
    else:
        text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
        parsed = dt.datetime.fromisoformat(text)
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=dt.timezone.utc)
        # floor, so a fractional instant before the epoch stays in the earlier second
        value = (parsed - _EPOCH_UTC) // _SECOND
    if value not in _DATED_SECONDS:
        raise ValueError(f"timestamp outside 0001-01-01 .. 9999-12-31 UTC: {raw!r}")
    return value


def parse_edge_log(
    source: BinaryIO | bytes,
    cfg: LogFormatConfig | None = None,
    *,
    malformed_threshold: float = 0.01,
    collapse_duplicates: bool = False,
) -> tuple[TemporalEdgeStream, IngestReport]:
    """Parse a delimited log into a sorted stream plus an ingest report.

    Rows that cannot be parsed are recorded with their line number; if their
    fraction exceeds ``malformed_threshold`` the whole parse fails. Rows whose
    sender equals the recipient are dropped and counted. Repeated identical
    rows are kept (they are distinct messages) unless ``collapse_duplicates``
    is set, which collapses exact (sender, recipient, timestamp) triples to
    their first occurrence.

    The sort is stable: rows with equal timestamps keep their input order.
    """
    cfg = cfg or LogFormatConfig()
    data = source.read() if hasattr(source, "read") else bytes(source)

    idx_sender = cfg.columns.index("sender")
    idx_recipient = cfg.columns.index("recipient")
    idx_timestamp = cfg.columns.index("timestamp")

    rows_read = 0
    self_loops = 0
    malformed: list[tuple[int, str]] = []
    # accepted rows in input order; names get provisional ids by input order
    stamps, senders, recipients = array("q"), array("q"), array("q")
    provisional: dict[str, int] = {}

    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        if cfg.has_header and line_no == 1:
            continue
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        if not raw:
            continue
        rows_read += 1
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            malformed.append((line_no, "invalid utf-8"))
            continue
        parts = text.split(cfg.delimiter)
        if len(parts) != 3:
            malformed.append((line_no, f"expected 3 columns, got {len(parts)}"))
            continue
        sender = parts[idx_sender].strip()
        recipient = parts[idx_recipient].strip()
        ts_raw = parts[idx_timestamp].strip()
        if not sender or not recipient:
            malformed.append((line_no, "empty sender or recipient"))
            continue
        try:
            ts = _parse_timestamp(ts_raw, cfg.timestamp_format)
        except ValueError:
            malformed.append((line_no, f"bad timestamp {ts_raw!r}"))
            continue
        if sender == recipient:
            self_loops += 1
            continue
        stamps.append(ts)
        senders.append(provisional.setdefault(sender, len(provisional)))
        recipients.append(provisional.setdefault(recipient, len(provisional)))

    if rows_read and len(malformed) / rows_read > malformed_threshold:
        preview = ", ".join(str(ln) for ln, _ in malformed[:5])
        raise IngestError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(threshold {malformed_threshold:g}); first bad lines: {preview}"
        )

    # one (timestamp, sender, recipient) row per message; ties keep input order
    columns = (stamps, senders, recipients)
    rows = np.stack([np.frombuffer(c, dtype=np.int64) for c in columns], axis=1)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    collapsed = 0
    if collapse_duplicates:
        _, first = np.unique(rows, axis=0, return_index=True)
        collapsed = len(rows) - len(first)
        rows = rows[np.sort(first)]

    # dense ids by first appearance in sorted order, sender before recipient
    _, first = np.unique(rows[:, 1:].ravel(), return_index=True)
    appearance = rows[:, 1:].ravel()[np.sort(first)]
    dense = np.empty(len(provisional), dtype=np.int64)
    dense[appearance] = np.arange(len(appearance))
    names = list(provisional)
    stream = TemporalEdgeStream(
        dense[rows[:, 1]],
        dense[rows[:, 2]],
        rows[:, 0],
        labels={i: names[p] for i, p in enumerate(appearance.tolist())},
    )
    report = IngestReport(
        rows_read, len(stream), self_loops, tuple(malformed), collapsed
    )
    return stream, report


def write_edge_log(
    stream: TemporalEdgeStream,
    sink: BinaryIO,
    cfg: LogFormatConfig | None = None,
) -> None:
    """Serialize a stream back to the delimited log format (inverse of parse)."""
    cfg = cfg or LogFormatConfig()
    labels = stream.labels or {}
    name = {u: labels.get(u, str(u)) for u in stream.node_registry.tolist()}
    if cfg.timestamp_format == "unix":
        stamps = list(map(str, stream.timestamps.tolist()))
    else:
        stamps = [
            dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).isoformat()
            for ts in stream.timestamps.tolist()
        ]
    fields = {
        "sender": [name[u] for u in stream.senders.tolist()],
        "recipient": [name[u] for u in stream.recipients.tolist()],
        "timestamp": stamps,
    }
    lines = [cfg.delimiter.join(cfg.columns)] if cfg.has_header else []
    lines.extend(map(cfg.delimiter.join, zip(*(fields[c] for c in cfg.columns))))
    lines.append("")  # trailing newline
    sink.write("\n".join(lines).encode("utf-8"))
