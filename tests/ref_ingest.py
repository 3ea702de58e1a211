"""The per-line message-log parser as it stood before the vectorized ingest.

A frozen copy, kept as the oracle for the differential tests in
test_ingest.py: the production parser must give an equal stream and an
equal IngestReport on every input (a leading UTF-8 byte-order mark aside,
which the production parser strips and this copy does not).

One change since it was frozen: a stamp is read by its own form, as the
format no longer names it. [+-]?[0-9]+ is unix seconds and any other stamp
goes through the ISO-8601 rule the copy held, where it used to follow the
log's timestamp_format.
"""
from __future__ import annotations

import datetime as dt
import re
from array import array
from typing import BinaryIO

import numpy as np

from commnet.errors import IngestError
from commnet.ingest import IngestReport, LogFormatConfig
from commnet.temporal import TemporalEdgeStream

_UNIX_SECONDS = re.compile(r"[+-]?[0-9]+")  # ASCII only; int() alone takes "1_000"
_EPOCH_UTC = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_SECOND = dt.timedelta(seconds=1)
# unix seconds that have a calendar date (0001-01-01 .. 9999-12-31 UTC)
_DATED_SECONDS = range(
    (dt.datetime.min.replace(tzinfo=dt.timezone.utc) - _EPOCH_UTC) // _SECOND,
    (dt.datetime.max.replace(tzinfo=dt.timezone.utc) - _EPOCH_UTC) // _SECOND + 1,
)


def _parse_timestamp(raw: str) -> int:
    if _UNIX_SECONDS.fullmatch(raw):
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
            ts = _parse_timestamp(ts_raw)
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
