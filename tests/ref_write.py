"""The per-row message-log writer as it stood before the vectorized writer.

A frozen copy, kept as the oracle for the differential tests in
test_ingest.py: the production writer, which writes unix seconds, must
write the same bytes for every stream and format. With ``iso=True`` it
writes each stamp as ``datetime.isoformat()`` text instead: the tests' way
to write a log in ISO-8601.
"""
from __future__ import annotations

import datetime as dt
from typing import BinaryIO

from commnet.ingest import LogFormatConfig
from commnet.temporal import TemporalEdgeStream


def write_edge_log(
    stream: TemporalEdgeStream,
    sink: BinaryIO,
    cfg: LogFormatConfig | None = None,
    *,
    iso: bool = False,
) -> None:
    """Serialize a stream back to the delimited log format (inverse of parse),
    its stamps as unix seconds or, with ``iso``, as ISO-8601 UTC text."""
    cfg = cfg or LogFormatConfig()
    labels = stream.labels or {}
    # node names by position
    name = [labels.get(u, str(u)) for u in stream.node_registry.tolist()]
    if iso:
        stamps = [
            dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).isoformat()
            for ts in stream.timestamps.tolist()
        ]
    else:
        stamps = list(map(str, stream.timestamps.tolist()))
    fields = {
        "sender": [name[u] for u in stream.senders.tolist()],
        "recipient": [name[u] for u in stream.recipients.tolist()],
        "timestamp": stamps,
    }
    lines = [cfg.delimiter.join(cfg.columns)] if cfg.has_header else []
    lines.extend(map(cfg.delimiter.join, zip(*(fields[c] for c in cfg.columns))))
    lines.append("")  # trailing newline
    sink.write("\n".join(lines).encode("utf-8"))
