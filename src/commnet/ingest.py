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
from dataclasses import dataclass
from typing import BinaryIO

from .errors import IngestError
from .temporal import TemporalEdge, TemporalEdgeStream

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


def _parse_timestamp(raw: str, fmt: str) -> int:
    if fmt == "unix":
        if not _UNIX_SECONDS.fullmatch(raw):
            raise ValueError(f"not unix seconds: {raw!r}")
        return int(raw)
    text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    parsed = dt.datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    # floor, so a fractional instant before the epoch stays in the earlier second
    return (parsed - _EPOCH_UTC) // _SECOND


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
    pending: list[tuple[int, str, str]] = []  # (timestamp, sender, recipient)

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
        pending.append((ts, sender, recipient))

    if rows_read and len(malformed) / rows_read > malformed_threshold:
        preview = ", ".join(str(ln) for ln, _ in malformed[:5])
        raise IngestError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(threshold {malformed_threshold:g}); first bad lines: {preview}"
        )

    pending.sort(key=lambda row: row[0])  # list.sort is stable: ties keep input order

    collapsed = 0
    if collapse_duplicates:
        seen: set[tuple[int, str, str]] = set()
        kept: list[tuple[int, str, str]] = []
        for row in pending:
            if row in seen:
                collapsed += 1
                continue
            seen.add(row)
            kept.append(row)
        pending = kept

    ids: dict[str, int] = {}
    labels: dict[int, str] = {}

    def intern(name: str) -> int:
        node = ids.get(name)
        if node is None:
            node = len(ids)
            ids[name] = node
            labels[node] = name
        return node

    edges = [TemporalEdge(intern(s), intern(r), ts) for ts, s, r in pending]
    stream = TemporalEdgeStream(edges, labels=labels)
    report = IngestReport(rows_read, len(edges), self_loops, tuple(malformed), collapsed)
    return stream, report


def merge_streams(streams: list[TemporalEdgeStream]) -> TemporalEdgeStream:
    """Merge streams parsed from separate sources into one sorted stream.

    Rows are matched by their original identifiers (falling back to the
    stringified id when a stream has no labels) and re-interned into a fresh
    dense id space. The merge re-sorts; timestamp ties keep source order, then
    in-stream order, matching what parsing the concatenated sources would do.
    """
    rows: list[tuple[int, str, str]] = []
    for stream in streams:
        labels = stream.labels or {}
        for e in stream.edges:
            rows.append(
                (
                    e.timestamp,
                    labels.get(e.sender, str(e.sender)),
                    labels.get(e.recipient, str(e.recipient)),
                )
            )
    rows.sort(key=lambda row: row[0])

    ids: dict[str, int] = {}
    labels_out: dict[int, str] = {}

    def intern(name: str) -> int:
        node = ids.get(name)
        if node is None:
            node = len(ids)
            ids[name] = node
            labels_out[node] = name
        return node

    edges = [TemporalEdge(intern(s), intern(r), ts) for ts, s, r in rows]
    return TemporalEdgeStream(edges, labels=labels_out)


def write_edge_log(
    stream: TemporalEdgeStream,
    sink: BinaryIO,
    cfg: LogFormatConfig | None = None,
) -> None:
    """Serialize a stream back to the delimited log format (inverse of parse)."""
    cfg = cfg or LogFormatConfig()
    labels = stream.labels or {}
    lines: list[str] = []
    if cfg.has_header:
        lines.append(cfg.delimiter.join(cfg.columns))
    for e in stream.edges:
        if cfg.timestamp_format == "unix":
            ts = str(e.timestamp)
        else:
            ts = dt.datetime.fromtimestamp(e.timestamp, tz=dt.timezone.utc).isoformat()
        fields = {
            "sender": labels.get(e.sender, str(e.sender)),
            "recipient": labels.get(e.recipient, str(e.recipient)),
            "timestamp": ts,
        }
        lines.append(cfg.delimiter.join(fields[c] for c in cfg.columns))
    lines.append("")  # trailing newline
    sink.write("\n".join(lines).encode("utf-8"))
