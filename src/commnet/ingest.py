"""Delimited message-log parsing into a temporal edge stream.

Input is one message-recipient event per line with three logical columns
(sender, recipient, timestamp); multi-recipient messages must arrive
pre-exploded to one row per recipient. Text is UTF-8, lines end with LF, a
trailing CR is stripped, and one UTF-8 byte-order mark at the start of the
input is ignored. A stamp says its own form, row by row: [+-]?[0-9]+ is
unix seconds, and any other stamp is read as ISO-8601 (a trailing Z or no
offset is UTC). Node ids are dense integers assigned in timestamp order of
first appearance; the original identifiers are kept as labels on the stream.

The source is read and parsed in chunks of whole lines, about _CHUNK_BYTES
each, so that besides the stream's columns (int32 positions, int64 stamps:
16 bytes a message) only one chunk's arrays are held: a first pass counts
the lines to size the columns, and a line longer than a read spans several.
A log in time order is handed over as parsed; any other is sorted by one
permutation, a column at a time. In a chunk, numpy passes over the bytes
take every line that is plainly well formed (see _fast_lines) and intern
its names a chunk at a time: a name met in an earlier chunk is found at its
hash's slot in a table, and only the others are sorted and looked up. The
passes read each field as unaligned little-endian 8-byte words: a name is
its words less the bytes past its end, an integer at most three words, each
turned from eight digits into a number by multiply-shift-mask steps
(_integers). Every other line, an ISO-8601 stamp's among them, goes, in
line order, through _parse_row, the one definition of the row rules and the
malformed reasons. A line takes the fast path only where _parse_row would
accept it with the same fields, so the result does not depend on which path
a line took; IngestReport.fallback_lines counts the lines left to
_parse_row.

The writer is the parser's inverse, _WRITE_ROWS rows at a time, and writes
unix seconds, the form the numpy passes read. A chunk is one uint8 matrix
with a row per line and fixed columns per field: names gathered from a
per-node table of UTF-8 bytes, stamps as a sign column and right-aligned
digits (four at a time from a table of 4-byte words), and the delimiters
and LF. Every field is padded with _BLANK, a byte no UTF-8 text holds, so
the matrix less its _BLANK bytes, read row-major, is the chunk's lines.
write_edge_list writes "u v" edge lists the same way. read_edge_list reads
a list in the writer's form back with the same integer passes, in one go,
and leaves any other list, whole, to its per-line rules.
"""
from __future__ import annotations

import datetime as dt
import io
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

import numpy as np

from .errors import IngestError
from .temporal import _BLOCK_ROWS, _DATED_SECONDS, TemporalEdgeStream

_COLUMNS = ("sender", "recipient", "timestamp")


@dataclass(frozen=True)
class LogFormatConfig:
    """Shape of the delimited log. Its fields and their defaults are the CLI's
    format flags and theirs, and the checks below are the only ones they get.
    No field names the stamps' form: each stamp says its own. The delimiter
    is one byte other than CR or LF, which end a line and so cannot part two
    of its fields."""

    columns: tuple[str, str, str] = _COLUMNS
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        if sorted(self.columns) != sorted(_COLUMNS):
            raise ValueError(f"columns must be a permutation of {_COLUMNS}")
        if len(self.delimiter.encode("utf-8")) != 1 or self.delimiter in "\r\n":
            raise ValueError("delimiter must be a single byte other than CR or LF")


@dataclass(frozen=True)
class IngestReport:
    """Accounting of one parse: every input row lands in exactly one bucket."""

    rows_read: int
    accepted: int
    self_loops_dropped: int
    malformed_rows: tuple[tuple[int, str], ...]  # (line number, reason)
    duplicates_collapsed: int = 0
    # lines the vectorized pass left to the per-line rules; how a row was
    # parsed never changes the result, so it takes no part in equality
    fallback_lines: int = field(default=0, compare=False)

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


_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark
_CHUNK_BYTES = 1 << 18  # the source is read in runs of whole lines about this long
_WRITE_ROWS = 1 << 16  # a stream is written in runs of this many rows
_BLANK = 0xFF  # a byte no UTF-8 text holds: the writer's padding
_FAST_NAME_BYTES = 64  # longer names are left to the per-line rules
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15  # odd; mixes the 8-byte words of a name
_SLOT_MULTIPLIER = np.uint64(0xFF51AFD7ED558CCD)  # odd; spreads hashes over slots
_SLOTS_PER_NAME = 8  # intern's table of names met keeps at least this many a name
_UNIX_SECONDS = re.compile(r"[+-]?[0-9]+")  # ASCII only; int() alone takes "1_000"
_INT64 = range(-(2**63), 2**63)  # node ids are int64
_EPOCH_UTC = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_SECOND = dt.timedelta(seconds=1)


def _parse_timestamp(raw: str) -> int:
    """The unix seconds of a stamp, read by its own form: [+-]?[0-9]+ is
    unix seconds, and any other stamp ISO-8601 text."""
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


class _Names(dict):
    """UTF-8 name -> provisional id, numbered by first lookup.

    Beside the dict, a table of the names intern has met: slot
    _slot(hash) holds the index of one name in ``hashes``, ``ids`` and
    ``words`` (its 8-byte words, one row per word), or -1. A name whose slot
    another name holds stays out of the table, and the table keeps at least
    _SLOTS_PER_NAME slots per name, so few do.
    """

    def __init__(self) -> None:
        super().__init__()
        self.slots = np.full(1 << 10, -1, dtype=np.int64)
        self.hashes = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int64)
        self.words = np.empty((_FAST_NAME_BYTES // 8, 0), dtype=np.uint64)

    def __missing__(self, key: bytes) -> int:
        self[key] = value = len(self)
        return value

    def _slot(self, key: np.ndarray) -> np.ndarray:
        """The top bits of each hash times an odd constant: a table index."""
        shift = 65 - len(self.slots).bit_length()
        return (key * _SLOT_MULTIPLIER) >> np.uint64(shift)

    def intern(self, words: np.ndarray) -> np.ndarray:
        """Provisional ids of the names in the rows of a NUL-padded uint64 matrix.

        A name's hash folds its own words alone, so it does not depend on
        the padding. A row whose slot holds a name of its words takes that
        name's id. The other rows are grouped by hash, so only one row per
        distinct name is looked up; a hash shared by two different names
        makes an exact sort group them instead.
        """
        key = words[:, 0].copy()
        for column in words.T[1:]:
            key = np.where(column, key * _HASH_MULTIPLIER + column, key)
        ids = np.empty(len(key), dtype=np.int64)
        entry = self.slots[self._slot(key)]
        hit = entry >= 0
        if len(self.hashes):  # a -1 entry reads the last name, and is no hit
            for known, column in zip(self.words, words.T):
                hit &= known[entry] == column
            # names hold no NUL, so a known name with a word past the row's
            # last is longer than every name of the chunk
            if words.shape[1] < len(self.words):
                hit &= self.words[words.shape[1]][entry] == 0
            ids[hit] = self.ids[entry[hit]]
        rest = np.flatnonzero(~hit)
        if not len(rest):
            return ids
        words, key = words[rest], key[rest]
        order = np.argsort(key)
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[order[1:]] != key[order[:-1]]
        rep = order[new]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        if not (words[rep][inverse] == words).all():
            _, rep, inverse = np.unique(
                words, axis=0, return_index=True, return_inverse=True
            )
        names = words[rep].view(f"S{words.itemsize * words.shape[1]}").ravel()
        found = np.fromiter(map(self.__getitem__, names.tolist()), np.int64, len(rep))
        ids[rest] = found[inverse]
        self._remember(key[rep], found, words[rep])
        return ids

    def _remember(self, key: np.ndarray, ids: np.ndarray, words: np.ndarray) -> None:
        """Give each of these names whose slot is free a place in the table,
        the first of them where several share one."""
        slot, first = np.unique(self._slot(key), return_index=True)
        free = self.slots[slot] < 0
        slot, first = slot[free], first[free]
        self.slots[slot] = np.arange(len(first)) + len(self.hashes)
        self.hashes = np.concatenate([self.hashes, key[first]])
        self.ids = np.concatenate([self.ids, ids[first]])
        added = np.zeros((len(self.words), len(first)), dtype=np.uint64)
        added[: words.shape[1]] = words[first].T
        self.words = np.concatenate([self.words, added], axis=1)
        if len(self.slots) < _SLOTS_PER_NAME * len(self.hashes):
            # a table twice as large as needed; a name whose new slot an
            # earlier name takes drops out of reach
            size = 1 << (2 * _SLOTS_PER_NAME * len(self.hashes)).bit_length()
            self.slots = np.full(size, -1, dtype=np.int64)
            slot, first = np.unique(self._slot(self.hashes), return_index=True)
            self.slots[slot] = first


def _parse_row(
    raw: bytes, delimiter: str, where: tuple[int, int, int]
) -> tuple[int, str, str] | str | None:
    """The row rules, applied to one line without its LF.

    ``where`` holds the column indices of sender, recipient and timestamp.
    Returns None for a blank line, the malformed reason for a bad one, and
    (timestamp, sender, recipient) otherwise.
    """
    if raw.endswith(b"\r"):
        raw = raw[:-1]
    if not raw:
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return "invalid utf-8"
    parts = text.split(delimiter)
    if len(parts) != 3:
        return f"expected 3 columns, got {len(parts)}"
    sender, recipient, ts_raw = (
        parts[where[0]].strip(), parts[where[1]].strip(), parts[where[2]].strip()
    )
    if not sender or not recipient:
        return "empty sender or recipient"
    try:
        return _parse_timestamp(ts_raw), sender, recipient
    except ValueError:
        return f"bad timestamp {ts_raw!r}"


def _reader(source: BinaryIO | bytes) -> BinaryIO:
    """A seekable binary reader of the source from where it stands: bytes
    through a BytesIO, which shares their buffer, and a stream that cannot
    seek read whole into one."""
    if not hasattr(source, "read"):
        return io.BytesIO(bytes(source))
    seekable = getattr(source, "seekable", None)
    if seekable is not None and seekable():
        return source
    return io.BytesIO(source.read())


def _line_count(reader: BinaryIO) -> int:
    """The LFs from the reader's position to its end, counted _CHUNK_BYTES
    at a time; the reader is left where it stood."""
    origin = reader.tell()
    count = 0
    while block := reader.read(_CHUNK_BYTES):
        count += block.count(b"\n")
    reader.seek(origin)
    return count


def _line_runs(reader: BinaryIO) -> Iterator[bytes]:
    """The rest of the reader as consecutive runs of whole lines, read
    _CHUNK_BYTES at a time: a run ends at the last LF of a read, and a
    partial line goes on to the next run. Only the last line may lack its
    LF."""
    parts = []
    while block := reader.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if not cut:  # a line longer than a read
            parts.append(block)
            continue
        parts.append(memoryview(block)[:cut])
        yield b"".join(parts)
        parts = [block[cut:]]
    if rest := b"".join(parts):
        yield rest


def _u64(byte: int) -> np.uint64:
    """``byte`` in every byte of a 64-bit word."""
    return np.uint64(byte * 0x0101010101010101)


# _LOW[k] keeps the first k bytes of a little-endian word, _HIGH[k] its last k
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_HIGH = ~_LOW[::-1]
# multiply, shift, mask: eight digit values in the bytes of a word become four
# pairs, then two quads, then the word's value (Langdale & Lemire 2019,
# "Parsing Gigabytes of JSON per Second", arXiv:1902.08318)
_EIGHT_DIGITS = (
    (np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(10_000 << 32 | 1), np.uint64(32), np.uint64(0xFFFFFFFF)),
)


def _word_view(data: np.ndarray, size: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """``data`` copied into a ``size``-byte text between ``pad`` (>= 24) zero
    bytes on each side, and that buffer's unaligned little-endian 8-byte
    words, where ``words[p + 24]`` is the word at text byte p, as
    _integers reads them; the text's bytes past ``data`` are zero."""
    padded = np.zeros(size + 2 * pad, dtype=np.uint8)
    text = padded[pad : pad + size]
    text[: len(data)] = data
    words = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
    return text, words[pad - 24 :]


def _integers(
    text: np.ndarray, words: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The int64 values of the fields ``text[lo:hi]``, and a mask of those
    that are [+-]?[0-9]{1,18}: every such integer fits in int64, and the
    other fields' values mean nothing.

    ``text`` and ``words`` are a _word_view, so the 24 bytes before the
    text are there to read. Row j of the digit matrix is the word that ends
    8j bytes before the field's end, less '0' in every byte; the bytes
    before the first digit become 0, as if '0'.
    """
    sign = text[lo]
    digits = hi - lo - ((sign == ord("+")) | (sign == ord("-")))
    back = 8 * np.arange(-(-min(int(digits.max(initial=1)), 18) // 8))[:, None]
    value = words[hi + 16 - back] ^ _u64(ord("0"))
    value &= _HIGH.take(np.clip(digits - back, 0, 8))
    # a byte is 0..9 only if bit 7 is clear in it and in it plus 0x76; a
    # carry between bytes needs a byte with bit 7 set, which fails anyway
    digit = (value + _u64(0x76) | value) & _u64(0x80) == 0
    for multiplier, shift, mask in _EIGHT_DIGITS:
        value *= multiplier
        value >>= shift
        value &= mask
    number = value[-1]
    for row in value[-2::-1]:
        number = number * np.uint64(10**8) + row
    number = number.view(np.int64)
    number[sign == ord("-")] *= -1
    return number, (digits >= 1) & (digits <= 18) & digit.all(axis=0)


def _fast_lines(
    chunk: np.ndarray, cfg: LogFormatConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the lines of a chunk end, then the lines that are plainly well
    formed and their fields.

    A line qualifies when it holds exactly two delimiters, every other byte
    (less one trailing CR) is printable non-space ASCII, both names are
    1.._FAST_NAME_BYTES bytes long and the timestamp is [+-]?[0-9]{1,18}
    with a calendar date. Returns where every line ends (its LF, or the
    chunk's end for a last line without one), the qualifying line indices,
    their timestamps, and a (2 * lines, words) uint64 matrix holding the
    sender names and then the recipient names, NUL-padded (no qualifying
    name contains a NUL). The delimiter is neither CR nor LF
    (LogFormatConfig refuses both), so it cannot pass for a line's end.

    Fields are read as unaligned little-endian 8-byte words (_word_view),
    which zero bytes on both sides of the chunk keep inside the buffer.
    """
    size = len(chunk) + (chunk[-1] != 0x0A)  # a last line without LF gets one
    text, words = _word_view(chunk, size, _FAST_NAME_BYTES)
    text[-1] = 0x0A

    # the delimiters, and every byte outside printable non-space ASCII; each
    # LF is one, so line i's marks lie between its LF and line i-1's
    delimiter = ord(cfg.delimiter)
    marks = np.flatnonzero((text - np.uint8(0x21) >= 0x7F - 0x21) | (text == delimiter))
    lf = np.flatnonzero(text[marks] == 0x0A)
    ends = marks[lf]
    first = np.concatenate(([0], lf[:-1] + 1))
    count = lf - first
    # two delimiters, or two delimiters and the CR just before the LF
    lines = np.flatnonzero((count == 2) | (count == 3))
    first, cr = first[lines], count[lines] == 3
    one, two = marks[first], marks[first + 1]
    end = ends[lines] - cr
    ok = (text[one] == delimiter) & (text[two] == delimiter)
    third = marks[first[cr] + 2]
    ok[cr] &= (third == end[cr]) & (text[third] == 0x0D)
    start = np.concatenate(([0], ends[:-1] + 1))[lines]
    bounds = [(start, one), (one + 1, two), (two + 1, end)]
    (s_lo, s_hi), (r_lo, r_hi), (t_lo, t_hi) = (
        bounds[cfg.columns.index(c)] for c in _COLUMNS
    )

    stamps, integer = _integers(text, words, t_lo, t_hi)
    ok &= integer & (stamps >= _DATED_SECONDS.start) & (stamps < _DATED_SECONDS.stop)
    lo = np.concatenate([s_lo, r_lo])
    length = np.concatenate([s_hi, r_hi]) - lo
    ok &= ((length >= 1) & (length <= _FAST_NAME_BYTES)).reshape(2, -1).all(axis=0)

    # row j holds bytes 8j .. 8j+7 of each name, NUL past its end
    lo, length = lo[np.tile(ok, 2)], length[np.tile(ok, 2)]
    ahead = 8 * np.arange(-(-int(length.max(initial=1)) // 8))[:, None]
    names = words[lo + 24 + ahead] & _LOW.take(np.clip(length - ahead, 0, 8))
    return ends, lines[ok], stamps[ok], names.T


def _fast_rows(
    chunk: np.ndarray, cfg: LogFormatConfig, names: _Names
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the lines of a chunk end, the lines that _fast_lines takes, the
    indices of those that are not self-loops, and their (timestamp, sender,
    recipient) rows as a (3, rows) int64 block with provisional ids for the
    names."""
    ends, lines, stamps, words = _fast_lines(chunk, cfg)
    senders, recipients = names.intern(words).reshape(2, -1)
    kept = senders != recipients
    block = np.stack([stamps[kept], senders[kept], recipients[kept]])
    return ends, lines, lines[kept], block


def _first_occurrences(columns: list[np.ndarray]) -> np.ndarray:
    """Mask of the rows whose tuple of column values has not occurred in an
    earlier row: a stable lexsort on all columns, then a neighbour mask."""
    order = np.lexsort(columns[::-1])
    repeat = np.ones(max(len(order) - 1, 0), dtype=bool)
    for column in columns:
        ordered = column[order]
        repeat &= ordered[1:] == ordered[:-1]
    # the sort is stable, so a run of equal rows starts at its first occurrence
    kept = np.ones(len(order), dtype=bool)
    kept[order[1:][repeat]] = False
    return kept


def validate_malformed_threshold(value: float) -> None:
    """Raise ValueError unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:  # NaN too: it would pass every log
        raise ValueError(f"malformed_threshold must lie in [0, 1], not {value}")


def parse_edge_log(
    source: BinaryIO | bytes,
    cfg: LogFormatConfig | None = None,
    *,
    malformed_threshold: float = 0.01,
    collapse_duplicates: bool = False,
) -> tuple[TemporalEdgeStream, IngestReport]:
    """Parse a delimited log into a sorted stream plus an ingest report.

    Rows that cannot be parsed are recorded with their line number; if their
    fraction exceeds ``malformed_threshold`` the whole parse fails. A threshold
    outside [0, 1], NaN included, is a ValueError before anything is read.
    Rows whose sender equals the recipient are dropped and counted. Repeated
    identical rows are kept (they are distinct messages) unless
    ``collapse_duplicates`` is set, which collapses exact (sender, recipient,
    timestamp) triples to their first occurrence.

    The sort is stable: rows with equal timestamps keep their input order.
    A stream is read from where it stands; one that cannot seek is read
    whole first, since the lines are counted before they are parsed.
    """
    validate_malformed_threshold(malformed_threshold)
    cfg = cfg or LogFormatConfig()
    reader = _reader(source)
    # the preamble, read once: a byte-order mark, then any header line
    head = reader.read(len(_BOM))
    if head != _BOM:
        reader.seek(-len(head), io.SEEK_CUR)
    if cfg.has_header:
        reader.readline()
    # accepted rows in input order as int64 timestamp and int32 sender and
    # recipient columns, with provisional ids for the names; every line
    # left may hold a row
    capacity = _line_count(reader) + 1
    columns = [np.empty(capacity, dtype=t) for t in (np.int64, np.int32, np.int32)]
    line_no = 2 if cfg.has_header else 1  # of the first line of the next run
    where = tuple(cfg.columns.index(c) for c in _COLUMNS)

    rows_read = self_loops = fallback = filled = 0
    malformed: list[tuple[int, str]] = []
    names = _Names()
    # whether the rows so far are in time order, and the last stamp
    ordered, last = True, _DATED_SECONDS.start
    for run in _line_runs(reader):
        chunk = np.frombuffer(run, dtype=np.uint8)
        # numpy takes the lines it can vouch for, _parse_row the rest
        ends, lines, order, block = _fast_rows(chunk, cfg, names)
        slow = np.ones(len(ends), dtype=bool)
        slow[lines] = False
        rows_read += len(lines)
        self_loops += len(lines) - len(order)
        starts = np.concatenate(([0], ends[:-1] + 1))

        # every other line, in line order, through the row rules
        left = np.flatnonzero(slow)
        fallback += len(left)
        slow_order, slow_cells = [], []
        for i, a, b in zip(left.tolist(), starts[left].tolist(), ends[left].tolist()):
            row = _parse_row(run[a:b], cfg.delimiter, where)
            if row is None:
                continue
            rows_read += 1
            if type(row) is str:
                malformed.append((line_no + i, row))
            elif row[1] == row[2]:
                self_loops += 1
            else:
                slow_order.append(i)
                slow_cells += (row[0], names[row[1].encode()], names[row[2].encode()])
        if slow_order:
            block = np.concatenate([block, np.reshape(slow_cells, (-1, 3)).T], axis=1)
            at = np.concatenate([order, slow_order])
            block = block[:, np.argsort(at, kind="stable")]
        stamps = block[0]
        if ordered and len(stamps):
            ordered = last <= stamps[0] and not (stamps[1:] < stamps[:-1]).any()
            last = stamps[-1]
        for column, values in zip(columns, block):
            column[filled : filled + len(values)] = values
        filled += block.shape[1]
        line_no += len(ends)
        del run, chunk, block, stamps, column, values  # before the next run is read

    if rows_read and len(malformed) / rows_read > malformed_threshold:
        preview = ", ".join(str(ln) for ln, _ in malformed[:5])
        raise IngestError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(threshold {malformed_threshold:g}); first bad lines: {preview}"
        )

    columns = [c[:filled] for c in columns]
    if not ordered:
        # one row per message; ties keep input order. No other name holds a
        # column, so each is freed as its gather replaces it: one
        # permutation and one extra column are live
        order = np.argsort(columns[0], kind="stable")
        for i in range(3):
            columns[i] = columns[i][order]
        del order
    timestamps, senders, recipients = columns
    collapsed = 0
    if collapse_duplicates:
        kept = _first_occurrences(columns)
        collapsed = len(kept) - int(np.count_nonzero(kept))
        timestamps, senders, recipients = (column[kept] for column in columns)
    del columns

    # dense ids by first appearance in sorted order, sender before recipient:
    # row i's sender is endpoint 2i, its recipient endpoint 2i + 1. The
    # first endpoints are found a block of rows at a time, until every name
    # has one: a later row cannot lower it
    unseen = 2 * len(senders)
    first = np.full(len(names), unseen, dtype=np.int64)
    for lo in range(0, len(senders), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        endpoint = np.arange(2 * lo, 2 * lo + 2 * len(senders[rows]), 2)
        np.minimum.at(first, senders[rows], endpoint)
        endpoint += 1
        np.minimum.at(first, recipients[rows], endpoint)
        if (first < unseen).all():
            break
    seen = np.flatnonzero(first < unseen)
    appearance = seen[np.argsort(first[seen])]
    dense = np.empty(len(names), dtype=np.int32)
    dense[appearance] = np.arange(len(appearance))
    for column in (senders, recipients):
        # in place, a block at a time: take turns an int32 index into an
        # intp copy first, which for the whole column would be 8 bytes a row
        for lo in range(0, len(column), _BLOCK_ROWS):
            block = column[lo : lo + _BLOCK_ROWS]
            np.take(dense, block, out=block, mode="clip")
    keys = list(names)
    # the dense ids are 0..n-1, so each id is its own position in the registry
    stream = TemporalEdgeStream.from_positions(
        senders,
        recipients,
        timestamps,
        np.arange(len(appearance)),
        labels={i: keys[p].decode() for i, p in enumerate(appearance.tolist())},
    )
    report = IngestReport(
        rows_read, len(stream), self_loops, tuple(malformed), collapsed, fallback
    )
    return stream, report


def _put(columns: np.ndarray, values: np.ndarray) -> None:
    """Copy the rows of the C-contiguous uint8 matrix ``values`` into the
    same-shape ``columns`` of a matrix with contiguous rows, each row as one
    item: several times faster than numpy's byte-wise copy of a narrow 2-D
    slice."""
    item = f"V{columns.shape[1]}"
    columns.view(item)[:, 0] = values.view(item)[:, 0]


def _digit_words() -> np.ndarray:
    """"0000" .. "9999" as 4-byte words, then the same 10,000 with their
    leading zeros _BLANK ("0012" as two blanks and "12"; "0000" all blank)."""
    digits = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    digits = (digits + ord("0")).astype(np.uint8)
    lead = digits.copy()
    lead[np.cumsum(digits != ord("0"), axis=1) == 0] = _BLANK
    return np.concatenate([digits, lead]).view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _name_table(stream: TemporalEdgeStream) -> np.ndarray:
    """Every node's name as UTF-8 by position: an (nodes, width) uint8 matrix,
    each row padded with _BLANK to the longest name."""
    labels = stream.labels or {}
    names = [labels.get(u, str(u)).encode() for u in stream.node_registry.tolist()]
    lengths = np.fromiter(map(len, names), np.int64, len(names))
    width = max(int(lengths.max(initial=0)), 1)
    table = np.array(names, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    table[np.arange(width) >= lengths[:, None]] = _BLANK
    return table


def _unix_width(stamps: np.ndarray) -> int:
    """Columns of the unix text of the stamps: a sign, one or more 4-digit
    words, the ones digit."""
    top = max(-int(stamps.min(initial=0)), int(stamps.max(initial=0)))
    return 2 + 4 * max(-(-(len(str(top)) - 1) // 4), 1)


def _unix_text(stamps: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal text of the stamps into the (rows, _unix_width)
    columns ``out``: a sign column ("-" or _BLANK), then the digits
    right-aligned behind _BLANK padding."""
    negative = stamps < 0
    magnitude = stamps.view(np.uint64)
    # uint64 negation wraps, so this is |stamp| for every int64, -2**63 too
    magnitude = np.where(negative, -magnitude, magnitude)
    out[:, 0] = np.where(negative, ord("-"), _BLANK)
    out[:, -1] = magnitude % 10 + ord("0")
    magnitude //= 10
    words = np.empty((len(stamps), (out.shape[1] - 2) // 4), dtype=np.uint32)
    for j in reversed(range(words.shape[1])):
        high = magnitude // 10_000
        magnitude -= high * 10_000
        # the word that holds the first digit, and every word above it,
        # comes from the half of the table with leading zeros blanked
        magnitude += (high == 0) * np.uint64(10_000)
        words[:, j] = _DIGIT_WORDS[magnitude]
        magnitude = high
    _put(out[:, 1:-1], words.view(np.uint8))


def write_edge_log(
    stream: TemporalEdgeStream,
    sink: BinaryIO,
    cfg: LogFormatConfig | None = None,
) -> None:
    """Serialize a stream back to the delimited log format (inverse of parse),
    its stamps as unix seconds."""
    cfg = cfg or LogFormatConfig()
    stamps = stream.timestamps
    names = _name_table(stream)
    ends = {"sender": stream.senders, "recipient": stream.recipients}
    widths = {"sender": names.shape[1], "recipient": names.shape[1]}
    widths["timestamp"] = _unix_width(stamps)
    at, spans = 0, {}
    for column in cfg.columns:
        spans[column] = slice(at, at + widths[column])
        at = spans[column].stop + 1  # a delimiter or the LF
    lines = np.empty((min(len(stamps), _WRITE_ROWS), at), dtype=np.uint8)
    lines[:, [spans[c].stop for c in cfg.columns[:2]]] = ord(cfg.delimiter)
    lines[:, -1] = ord("\n")
    if cfg.has_header:
        sink.write((cfg.delimiter.join(cfg.columns) + "\n").encode())
    for lo in range(0, len(stamps), _WRITE_ROWS):
        block = lines[: min(len(stamps) - lo, _WRITE_ROWS)]
        rows = slice(lo, lo + len(block))
        for column, positions in ends.items():
            _put(block[:, spans[column]], names.take(positions[rows], axis=0))
        _unix_text(stamps[rows], block[:, spans["timestamp"]])
        # row-major, so the kept bytes come out as the lines in order
        sink.write(block[block != _BLANK])


def write_edge_list(edges: np.ndarray, sink: BinaryIO) -> None:
    """Write an (m, 2) int64 array of node-id pairs as "u v" lines, the edge
    list the robustness verb reads, _WRITE_ROWS rows at a time."""
    width = _unix_width(edges)
    lines = np.empty((min(len(edges), _WRITE_ROWS), 2 * width + 2), dtype=np.uint8)
    lines[:, width] = ord(" ")
    lines[:, -1] = ord("\n")
    for lo in range(0, len(edges), _WRITE_ROWS):
        block = lines[: min(len(edges) - lo, _WRITE_ROWS)]
        pairs = edges[lo : lo + len(block)]
        _unix_text(pairs[:, 0], block[:, :width])
        _unix_text(pairs[:, 1], block[:, width + 1 : -1])
        sink.write(block[block != _BLANK])


def _edge_pairs(data: bytes) -> np.ndarray | None:
    """The pairs of an edge list in write_edge_list's own form, where every
    line is [+-]?[0-9]{1,18}, a space, [+-]?[0-9]{1,18} and an LF, and no
    line is a self-edge; None for any other input, an empty one included."""
    if not data.endswith(b"\n"):
        return None
    text, words = _word_view(np.frombuffer(data, dtype=np.uint8), len(data), 24)
    # the field ends: a space, an LF, a space ..., so each line holds one space
    ends = np.flatnonzero((text == ord(" ")) | (text == ord("\n")))
    marks = text[ends]
    if len(ends) % 2 or (marks[::2] != ord(" ")).any() or (marks[1::2] != ord("\n")).any():
        return None
    ids, integer = _integers(text, words, np.concatenate(([0], ends[:-1] + 1)), ends)
    pairs = ids.reshape(-1, 2)
    if not integer.all() or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs


def read_edge_list(source: BinaryIO) -> np.ndarray:
    """The (m, 2) int64 node-id pairs of a "u v" edge list, one pair per
    line, as write_edge_list writes it. Blank lines and "#" comments are
    skipped, and one UTF-8 byte-order mark at the start is ignored, as in a
    log. A line that is not two ids, a self-edge, an id outside the int64
    range or a byte that is not UTF-8 raises IngestError naming its line.

    An input in write_edge_list's own form is read in numpy passes (see
    _edge_pairs). Any other goes, whole, through the per-line rules below,
    the one definition of the accepted forms and of every error."""
    data = source.read().removeprefix(_BOM)
    pairs = _edge_pairs(data)
    if pairs is not None:
        return pairs
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
