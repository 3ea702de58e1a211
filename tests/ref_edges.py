"""The per-line edge-list reader as it stood before its vectorized fast path.

A frozen copy, kept as the oracle for the differential tests in
test_ingest.py: ``commnet.ingest.read_edge_list`` must return equal pairs,
or raise an IngestError with the same message, on every input.
"""
from __future__ import annotations

from typing import BinaryIO

import numpy as np

from commnet.errors import IngestError

_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark
_INT64 = range(-(2**63), 2**63)  # node ids are int64


def read_edge_list(source: BinaryIO) -> np.ndarray:
    """The (m, 2) int64 node-id pairs of a "u v" edge list, one pair per
    line, as write_edge_list writes it. Blank lines and "#" comments are
    skipped, and one UTF-8 byte-order mark at the start is ignored, as in a
    log. A line that is not two ids, a self-edge, an id outside the int64
    range or a byte that is not UTF-8 raises IngestError naming its line."""
    data = source.read().removeprefix(_BOM)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; its line breaks number the line
        line_no = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise IngestError(
            f"line {line_no}: byte {data[exc.start]:#04x} is not UTF-8 text"
        ) from None
    edges = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            # ids are ASCII [+-]?[0-9]+, the log parser's integer rule; int()
            # alone also takes "1_000" and non-ASCII digits
            if not line.isascii() or "_" in line:
                raise ValueError
            u, v = map(int, line.split())
        except ValueError:
            raise IngestError(
                f"line {line_no}: expected two integer ids 'u v', got {line!r}"
            ) from None
        if u == v:
            raise IngestError(f"line {line_no}: self-edge on node {u}")
        if u not in _INT64 or v not in _INT64:
            raise IngestError(f"line {line_no}: node id outside the int64 range")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)
