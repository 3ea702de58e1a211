import datetime as dt
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commnet as cn
from commnet import (
    IngestReport,
    LogFormatConfig,
    TemporalEdgeStream,
    parse_edge_log,
    write_edge_log,
)
from commnet import ingest
from commnet.errors import IngestError

from . import ref_edges, ref_ingest, ref_write


def parse(data: bytes, cfg=None, **kwargs):
    return parse_edge_log(io.BytesIO(data), cfg, **kwargs)


def test_three_wellformed_rows():
    stream, report = parse(b"a,b,1000\nb,c,2000\nc,a,3000\n")
    assert report.rows_read == 3
    assert report.accepted == 3
    assert report.malformed == 0
    assert len(stream) == 3
    assert stream.labels == {0: "a", 1: "b", 2: "c"}


def test_self_loop_dropped():
    stream, report = parse(b"A,A,1000000000\n")
    assert report.self_loops_dropped == 1
    assert report.accepted == 0
    assert len(stream) == 0


def test_bad_timestamp_recorded_with_line_number():
    stream, report = parse(
        b"a,b,1000\na,b,not-a-date\n", malformed_threshold=0.9
    )
    assert report.malformed_rows == ((2, "bad timestamp 'not-a-date'"),)
    assert report.accepted == 1
    # unix seconds are ASCII [+-]?[0-9]+ only, not whatever int() accepts
    stream, report = parse(
        "a,b,-5\na,b,+7\na,b,1_000\na,b,\u0661\u0662\na,b,1.0\n".encode(),
        malformed_threshold=0.9,
    )
    assert stream.timestamps.tolist() == [-5, 7]
    assert [line for line, _ in report.malformed_rows] == [3, 4, 5]


def test_wrong_column_count():
    _, report = parse(b"a,b\n", malformed_threshold=1.0)
    assert report.malformed_rows[0][0] == 1
    assert "columns" in report.malformed_rows[0][1]


def test_malformed_fraction_threshold():
    rows = b"\n".join([b"a,b,1"] * 98 + [b"bad", b"also,bad"]) + b"\n"
    with pytest.raises(IngestError):
        parse(rows, malformed_threshold=0.01)
    _, report = parse(rows, malformed_threshold=0.05)
    assert report.malformed == 2


def test_header_and_crlf():
    stream, report = parse(
        b"sender,recipient,timestamp\r\na,b,5\r\nb,a,6\r\n",
        LogFormatConfig(has_header=True),
    )
    assert report.rows_read == 2
    assert stream.timestamps.tolist() == [5, 6]


def test_column_order_and_delimiter():
    cfg = LogFormatConfig(
        columns=("timestamp", "sender", "recipient"), delimiter="\t"
    )
    stream, _ = parse(b"7\tx\ty\n", cfg)
    assert (stream.senders[0], stream.recipients[0], stream.timestamps[0]) == (0, 1, 7)
    assert stream.labels == {0: "x", 1: "y"}


def test_iso8601_timestamps():
    stream, _ = parse(b"a,b,1970-01-01T00:01:00Z\nb,a,1970-01-01T02:01:00+02:00\n")
    # both instants are 60 seconds past midnight UTC
    assert stream.timestamps.tolist() == [60, 60]
    # fractional seconds floor, also before the epoch
    stream, _ = parse(b"a,b,1969-12-31T23:59:59.5Z\nb,a,1970-01-01T00:00:00.5Z\n")
    assert stream.timestamps.tolist() == [-1, 0]
    assert cn.slice_days(stream).date(0).isoformat() == "1969-12-31"


def test_sorts_and_preserves_tie_order():
    stream, _ = parse(b"a,b,100\nc,d,50\ne,f,100\ng,h,50\n")
    pairs = [
        (stream.labels[s], t)
        for s, t in zip(stream.senders.tolist(), stream.timestamps.tolist())
    ]
    assert pairs == [("c", 50), ("g", 50), ("a", 100), ("e", 100)]


def test_duplicates_kept_by_default_collapsed_on_request():
    data = b"a,b,10\na,b,10\na,b,11\n"
    stream, report = parse(data)
    assert report.accepted == 3 and report.duplicates_collapsed == 0
    stream2, report2 = parse(data, collapse_duplicates=True)
    assert report2.accepted == 2
    assert report2.duplicates_collapsed == 1
    assert len(stream2) == 2


def test_parse_is_deterministic():
    data = b"a,b,100\nc,d,50\nx,y,bad\nself,self,7\n"
    one = parse(data, malformed_threshold=0.5)
    two = parse(data, malformed_threshold=0.5)
    assert one[0] == two[0]
    assert one[1] == two[1]


def test_round_trip_identity():
    data = b"a,b,100\nc,d,50\ne,f,100\n"
    stream, _ = parse(data)
    buf = io.BytesIO()
    write_edge_log(stream, buf)
    reparsed, _ = parse(buf.getvalue())
    assert reparsed == stream


def test_round_trip_with_header_and_iso():
    # the writer normalizes an ISO-8601 stamp to unix seconds
    cfg = LogFormatConfig(has_header=True)
    stream, _ = parse(b"sender,recipient,timestamp\na,b,1979-05-27T07:32:00Z\n", cfg)
    buf = io.BytesIO()
    write_edge_log(stream, buf, cfg)
    assert buf.getvalue() == b"sender,recipient,timestamp\na,b,296638320\n"
    reparsed, _ = parse(buf.getvalue(), cfg)
    assert reparsed == stream


def test_report_accounting_enforced():
    with pytest.raises(ValueError):
        IngestReport(
            rows_read=3,
            accepted=1,
            self_loops_dropped=0,
            malformed_rows=(),
            duplicates_collapsed=0,
        )


def test_config_validation():
    with pytest.raises(ValueError):
        LogFormatConfig(columns=("sender", "sender", "timestamp"))
    with pytest.raises(ValueError):
        LogFormatConfig(delimiter="::")
    # an LF ends every line and a CR before it is stripped, so neither parts
    # two fields of a line
    for delimiter in ("\r", "\n"):
        with pytest.raises(ValueError, match="other than CR or LF"):
            LogFormatConfig(delimiter=delimiter)


def test_a_stamp_of_digits_alone_is_unix_seconds():
    # 20010514 is an ISO-8601 basic date to fromisoformat on Python >= 3.11;
    # as digits alone it is unix seconds, and takes the numpy passes
    stream, report = parse(b"a,b,20010514\nb,a,2001-05-14\n")
    assert stream.timestamps.tolist() == [20_010_514, 989_798_400]
    assert report.fallback_lines == 1


names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
rows = st.lists(
    st.tuples(names, names, st.integers(min_value=0, max_value=10**6)).filter(
        lambda t: t[0] != t[1]
    ),
    max_size=40,
)


@given(rows)
def test_round_trip_property(raw):
    data = ("\n".join(f"{s},{r},{t}" for s, r, t in raw) + "\n").encode()
    stream, _ = parse(data)
    buf = io.BytesIO()
    write_edge_log(stream, buf)
    reparsed, _ = parse(buf.getvalue())
    assert reparsed == stream


names_or_junk = st.one_of(names, st.sampled_from(["", " a", "b ", "é"]))
stamps = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.sampled_from(["", "x", "1.5", "1_0", "+3", "٣", "1970-01-01T00:00:00Z"]),
)
wellformed_row = st.tuples(names, names, st.integers(-(10**12), 10**12)).map(
    lambda t: f"{t[0]},{t[1]},{t[2]}".encode()
)
fuzzy_row = st.lists(st.one_of(names_or_junk, stamps), max_size=5).map(
    lambda fields: ",".join(fields).encode()
)
fuzz_lines = st.lists(
    st.tuples(
        st.one_of(wellformed_row, wellformed_row, fuzzy_row, st.binary(max_size=8)),
        st.booleans(),
    ).map(lambda t: t[0] + b"\r" * t[1]),  # optional CRLF ending
    max_size=30,
)


@given(fuzz_lines, st.booleans())
def test_parse_arbitrary_rows(lines, collapse):
    # duplicate a prefix so repeated rows are common, not just possible
    data = b"\n".join(lines + lines[: len(lines) // 3])
    try:
        stream, report = parse(
            data, malformed_threshold=0.5, collapse_duplicates=collapse
        )
    except IngestError:
        return
    assert report.accepted == len(stream)
    assert (np.diff(stream.timestamps) >= 0).all()
    assert not (stream.senders == stream.recipients).any()
    # dense ids 0..n-1, numbered by first appearance, sender before recipient
    ends = np.stack([stream.senders, stream.recipients], axis=1).ravel().tolist()
    first_seen = list(dict.fromkeys(ends))
    assert first_seen == list(range(len(first_seen)))
    assert stream.node_registry.tolist() == first_seen
    assert sorted(stream.labels) == first_seen
    assert len(set(stream.labels.values())) == len(first_seen)


# --- the vectorized parser against the frozen per-line parser --------------

_DATED = ingest._DATED_SECONDS
plain_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
odd_fields = st.sampled_from(
    [
        "", " a", "b ", "a b", "\x1fa", "a\x1f", "\u00a0a", "a\u00a0", "é", "a\x00",
        "a\x01", "\r", "a\rb", "abcdefgh", "abcdefghi", "bbcdefghi", "a" * 16,
        "a" * 17, "x" * 64, "x" * 65,
    ]
)
odd_stamps = st.sampled_from(
    [
        "0", "+0", "-0", "007", "-007", "+12", "-12", "+", "-", "1" * 18, "9" * 18,
        "-" + "9" * 18, "0" * 18 + "5", "1" + "0" * 17 + "5", "1" * 19, "0" * 20 + "7",
        "1" * 21, str(_DATED.start), str(_DATED.start - 1), str(_DATED.stop - 1),
        str(_DATED.stop), " 5", "5 ", "5\x01", "5\x1f", "1_0", "1.5", "٣", "2020",
        "20200101", "1970-01-01T00:00:00Z", "1970-01-02T00:00:00+02:00",
    ]
)
# small stamps tie often, so input order decides the order of tied rows
stamp_texts = st.one_of(
    st.integers(0, 3).map(str), st.integers(-(10**12), 10**12).map(str), odd_stamps
)


@st.composite
def mixed_logs(draw):
    """A log config plus bytes that mix plainly well-formed rows with every
    kind of line the per-line rules have to judge."""
    cfg = LogFormatConfig(
        columns=tuple(draw(st.permutations(list(ingest._COLUMNS)))),
        delimiter=draw(st.sampled_from([",", "\t", ";"])),
        has_header=draw(st.booleans()),
    )
    delimiter = cfg.delimiter.encode()

    def arranged(row):
        fields = dict(zip(("sender", "recipient", "timestamp"), row))
        return delimiter.join(fields[c].encode() for c in cfg.columns)

    wellformed = st.tuples(plain_names, plain_names, stamp_texts).map(arranged)
    field = st.one_of(
        plain_names.map(str.encode),
        odd_fields.map(str.encode),
        stamp_texts.map(str.encode),
        st.sampled_from([b"\xff", b"a\xc3", b"\xc3\xa9"]),  # bad, bad, good UTF-8
    )
    line = st.one_of(
        wellformed,
        wellformed,
        wellformed,
        st.tuples(
            st.one_of(plain_names, odd_fields),
            st.one_of(plain_names, odd_fields),
            stamp_texts,
        ).map(arranged),
        st.lists(field, max_size=4).map(delimiter.join),
        st.binary(max_size=8),
        st.sampled_from([b"", b"\r", b"\xef\xbb\xbf"]),
    )
    ending = st.sampled_from([b"", b"", b"", b"\r", b"\r\r"])  # before the LF
    lines = [a + b for a, b in draw(st.lists(st.tuples(line, ending), max_size=60))]
    # repeat a prefix so duplicate rows are common, not just possible
    data = b"\n".join(lines + lines[: len(lines) // 3])
    if draw(st.booleans()):
        data += b"\n"
    return cfg, data


def _outcome(parser, data, cfg, **kwargs):
    try:
        return parser(io.BytesIO(data), cfg, **kwargs)
    except IngestError as exc:
        return str(exc)


@settings(max_examples=300)
@given(
    mixed_logs(),
    st.booleans(),
    st.sampled_from([0.3, 1.0, 1.0]),
    st.sampled_from([1, 7, 64, None]),
    st.booleans(),
)
def test_matches_reference_parser(log, collapse, threshold, chunk, collide):
    cfg, data = log
    kwargs = dict(malformed_threshold=threshold, collapse_duplicates=collapse)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # cross chunk boundaries, down to one line a chunk
            mp.setattr(ingest, "_CHUNK_BYTES", chunk)
        if collide:  # names longer than 8 bytes that share a last word collide
            mp.setattr(ingest, "_HASH_MULTIPLIER", 0)
        got = _outcome(parse_edge_log, data, cfg, **kwargs)
    # the reference predates the byte-order-mark rule
    unmarked = data.removeprefix(ingest._BOM)
    want = _outcome(ref_ingest.parse_edge_log, unmarked, cfg, **kwargs)
    assert got == want


_EPOCH = dt.datetime(1970, 1, 1)
STAMP_FORMS = ("digits", "T", "space", "Z", "offset")


def _stamp_text(seconds: int, form: str, offset_minutes: int) -> str:
    """The instant ``seconds`` past the epoch as unix seconds, or as ISO-8601
    text with a T or a space, with no zone, a Z, or a ±HH:MM offset."""
    if form == "digits":
        return str(seconds)
    instant = _EPOCH + dt.timedelta(seconds=seconds)
    if form == "offset":
        zone = dt.timezone(dt.timedelta(minutes=offset_minutes))
        return instant.replace(tzinfo=dt.timezone.utc).astimezone(zone).isoformat()
    return instant.isoformat(sep=" " if form == "space" else "T") + "Z" * (form == "Z")


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            plain_names,
            plain_names,
            # 1653 .. 2286, so every offset keeps the local time dated
            st.one_of(st.integers(0, 3), st.integers(-(10**10), 10**10)),
            st.sampled_from(STAMP_FORMS),
            st.integers(-(24 * 60 - 1), 24 * 60 - 1),
        ),
        max_size=40,
    ),
    st.permutations(list(ingest._COLUMNS)),
    st.sampled_from([1, 64, None]),
)
def test_each_row_stamp_is_read_by_its_own_form(rows, columns, chunk):
    # one log mixes unix seconds and ISO-8601 forms row by row; every form
    # of an instant reads as that instant, as in the reference
    cfg = LogFormatConfig(columns=tuple(columns))
    lines = []
    for sender, recipient, seconds, form, offset in rows:
        named = {"sender": sender, "recipient": recipient}
        named["timestamp"] = _stamp_text(seconds, form, offset)
        lines.append(",".join(named[c] for c in cfg.columns) + "\n")
    data = "".join(lines).encode()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(ingest, "_CHUNK_BYTES", chunk)
        got = parse(data, cfg)
    assert got == ref_ingest.parse_edge_log(data, cfg)
    stream, report = got
    kept = [seconds for sender, recipient, seconds, _, _ in rows if sender != recipient]
    assert stream.timestamps.tolist() == sorted(kept)
    assert report.malformed == 0
    assert report.fallback_lines == sum(form != "digits" for *_, form, _ in rows)


@pytest.mark.parametrize("chunk", [1, 8, None])
@pytest.mark.parametrize(
    "data",
    [
        # rows left to the per-line rules tie with vectorized ones
        b" a,b,1\nc,d,1\ne,f,0\n g,h,0\n",
        b"c,d,1\na,b,1\r\r\nc,d,1\n",
        # 19 digits: leading zeros are fine, a nonzero first digit is out of range
        b"a,b,1000000000000000005\na,b,0000000000000000005\na,b,-0000000000000000005\n",
        # trailing control bytes: \x1f is whitespace to str.strip, \x01 is not
        b"a,b,5\x01\na,b,5\x1f\na\x01,b,5\n\x1fa,b,5\n",
        # one name through both paths: vectorized, padded, non-ASCII neighbour
        b"ab,cd,1\n ab,cd,2\nab ,\xc3\xa9,3\ncd,ab,4",
    ],
)
def test_matches_reference_on_edge_rows(data, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
    for collapse in (False, True):
        got = parse(data, malformed_threshold=1.0, collapse_duplicates=collapse)
        want = ref_ingest.parse_edge_log(
            data, malformed_threshold=1.0, collapse_duplicates=collapse
        )
        assert got == want


def test_matches_reference_on_a_generated_corpus(monkeypatch):
    params = cn.HubCorpusParams(
        nodes=60, days=6, hubs=4, hub_rate=20, background_rate=4
    )
    buf = io.BytesIO()
    write_edge_log(cn.generate_hub_corpus(params), buf)
    lines = buf.getvalue().split(b"\n")
    # a few lines only the per-line rules accept or judge, among thousands
    lines[10] = b" " + lines[10]
    lines[20] += b"\r"
    lines[30] = b"bad"
    lines[40] = lines[40].replace(b",", b",\xc3\xa9", 1)
    data = b"\n".join(lines)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 4096)
    stream, report = parse(data, malformed_threshold=0.5)
    assert (stream, report) == ref_ingest.parse_edge_log(data, malformed_threshold=0.5)
    assert report.fallback_lines == 3
    assert report.malformed_rows == ((31, "expected 3 columns, got 1"),)
    assert len(stream) > 1000


def test_hash_collision_groups_names_exactly(monkeypatch):
    data = b"aaaaaaaaX,bbbbbbbbX,1\nbbbbbbbbX,ccccccccX,2\nab,aaaaaaaaX,3\n"
    monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", 0)
    stream, report = parse(data)
    assert report.fallback_lines == 0
    assert stream.labels == {0: "aaaaaaaaX", 1: "bbbbbbbbX", 2: "ccccccccX", 3: "ab"}
    assert stream.senders.tolist() == [0, 1, 3]
    assert stream.recipients.tolist() == [1, 2, 0]


def test_later_chunk_name_sharing_a_known_hash_gets_its_own_id(monkeypatch):
    # with the multiplier 0 a name's hash is its last word, so "aaaaaaaaX"
    # and "ccccccccX" share one; the second comes in a chunk after the first
    # is known, and again once both are. "dddddddd" shares its hash and its
    # one word with the first word of the longer "dddddddddddddddd"
    data = (
        b"aaaaaaaaX,b,1\nb,ccccccccX,2\nccccccccX,aaaaaaaaX,3\n"
        b"dddddddddddddddd,b,4\ndddddddd,b,5\n"
    )
    monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", 0)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1)
    stream, report = parse(data)
    assert report.fallback_lines == 0
    assert stream.labels == {
        0: "aaaaaaaaX", 1: "b", 2: "ccccccccX", 3: "dddddddddddddddd", 4: "dddddddd"
    }
    assert stream.senders.tolist() == [0, 1, 2, 3, 4]
    assert stream.recipients.tolist() == [1, 2, 0, 1, 1]
    assert (stream, report) == ref_ingest.parse_edge_log(data)


def test_renumbering_across_blocks_matches_reference(monkeypatch):
    # 5 rows a block: the names of a generated corpus first appear in many
    # blocks, and each keeps its id by first appearance in every block after
    params = cn.HubCorpusParams(
        nodes=30, days=4, hubs=3, hub_rate=6, background_rate=2, seed=2
    )
    sink = io.BytesIO()
    write_edge_log(cn.generate_hub_corpus(params), sink)
    data = sink.getvalue()
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 5)
    stream, report = parse(data)
    want, want_report = ref_ingest.parse_edge_log(data)
    assert report == want_report
    for got, expected in (
        (stream.senders, want.senders),
        (stream.recipients, want.recipients),
        (stream.timestamps, want.timestamps),
    ):
        assert got.tolist() == expected.tolist()
    assert stream.labels == want.labels
    # a name is new in a row of each of several blocks
    ends = np.stack([stream.senders, stream.recipients], axis=1).ravel()
    _, first = np.unique(ends, return_index=True)
    assert len(np.unique(first // 2 // 5)) > 5


def _name_words(names: list[bytes], width: int) -> np.ndarray:
    padded = b"".join(name.ljust(8 * width, b"\0") for name in names)
    return np.frombuffer(padded, dtype="<u8").reshape(-1, width)


def test_names_met_in_a_narrower_chunk_are_found_in_the_table():
    names = ingest._Names()
    assert names.intern(_name_words([b"ab", b"cd", b"ab"], 1)).tolist() == [0, 1, 0]
    wider = _name_words([b"cd", b"a longer name", b"ab"], 2)
    assert names.intern(wider).tolist() == [1, 2, 0]
    # one table entry a name: the second chunk looked up "ab" and "cd" there
    assert sorted(names.ids.tolist()) == [0, 1, 2]


def test_leading_bom_is_stripped():
    stream, report = parse(b"\xef\xbb\xbfalice,bob,1000\nbob,alice,2000\n")
    assert stream.labels == {0: "alice", 1: "bob"}
    assert report.accepted == 2
    # before the header, too; a BOM anywhere else stays part of the field
    cfg = LogFormatConfig(has_header=True)
    stream, _ = parse(b"\xef\xbb\xbfsender,recipient,timestamp\na,b,5\n", cfg)
    assert stream.labels == {0: "a", 1: "b"}
    stream, _ = parse(b"a,b,5\n\xef\xbb\xbfa,b,6\n")
    assert stream.labels == {0: "a", 1: "b", 2: "\ufeffa"}


def test_fallback_lines_counted():
    _, report = parse(b"a,b,1\n\nb,c,2\r\n b,c,3\nc,a,x\n", malformed_threshold=0.5)
    # the blank line, the padded row and the bad stamp; CRLF stays vectorized
    assert report.fallback_lines == 3
    _, report = parse(b"a,b,1970-01-01T00:01:00Z\nb,a,1970-01-01T00:02:00Z\n")
    assert report.fallback_lines == 2
    # fallback_lines says how rows were parsed, not what they hold
    assert report == IngestReport(2, 2, 0, ())


def test_parse_holds_the_rows_about_once():
    # 151 nodes x 20 days of the hub corpus: 62,176 rows. Each column is
    # gathered once and handed to the stream without a copy, so the traced
    # peak stays under 115 bytes a row; holding a sorted row copy, raveled
    # endpoints and copied columns at once took 136.
    params = cn.HubCorpusParams(
        nodes=151, days=20, hubs=10, hub_rate=100, background_rate=15, seed=1
    )
    sink = io.BytesIO()
    write_edge_log(cn.generate_hub_corpus(params), sink)
    data = sink.getvalue()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stream, report = parse_edge_log(data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.accepted == 62_176
    assert peak / report.accepted <= 115
    # int32 positions, int64 stamps and ids: 16 bytes a message
    for column, dtype in (
        (stream.senders, np.int32),
        (stream.recipients, np.int32),
        (stream.timestamps, np.int64),
        (stream.node_registry, np.int64),
    ):
        assert column.dtype == dtype and not column.flags.writeable


def test_parse_from_a_file_holds_the_columns_and_one_chunk(tmp_path, monkeypatch):
    # 311,640 rows, 4.8 MB, read 16 KiB at a time: the traced peak stays
    # within the stream's columns, 16 bytes a row, and a fixed allowance for
    # a chunk's arrays; reading the whole file first took the file's size
    # more, and renumbering a whole int32 column at once 8 bytes a row more
    params = cn.HubCorpusParams(
        nodes=151, days=100, hubs=10, hub_rate=100, background_rate=15, seed=1
    )
    path = tmp_path / "hub.log"
    with open(path, "wb") as fh:
        write_edge_log(cn.generate_hub_corpus(params), fh)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1 << 14)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stream, report = parse_edge_log(fh)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.accepted == len(stream) == 311_640
    assert path.stat().st_size > 4 << 20
    assert peak < 16 * len(stream) + (3 << 19)


class _Unseekable(io.RawIOBase):
    """A stream that reads, a few bytes a call, and cannot seek."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._data.read(min(len(buffer), 5))
        buffer[: len(chunk)] = chunk
        return len(chunk)


@settings(max_examples=200)
@given(
    mixed_logs(),
    st.booleans(),
    st.binary(max_size=9),
    st.sampled_from([1, 7, 64]),
    st.sampled_from([1, 3, None]),
)
def test_bom_header_and_long_lines_straddle_reads(log, bom, skipped, chunk, rows):
    # a BOM, a header and a line longer than a read each span several reads;
    # the source may stand past some bytes, and may not seek. Names are
    # numbered `rows` rows a block, so a name can first appear in any block
    cfg, data = log
    long_line = cfg.delimiter.join(["s" * 70, "r" * 70, "1" * 9]).encode()
    data = (ingest._BOM if bom else b"") + b"%s\n%s" % (long_line, data)
    if cfg.has_header:
        data = data.replace(long_line, cfg.delimiter.join(cfg.columns).encode() * 9, 1)
    unmarked = data.removeprefix(ingest._BOM)
    want = ref_ingest.parse_edge_log(unmarked, cfg, malformed_threshold=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_BYTES", chunk)
        if rows is not None:
            mp.setattr(ingest, "_BLOCK_ROWS", rows)
        seekable = io.BytesIO(skipped + data)
        seekable.seek(len(skipped))
        for source in (data, seekable, _Unseekable(data)):
            assert parse_edge_log(source, cfg, malformed_threshold=1.0) == want


def test_log_out_of_time_order_parses_to_the_sorted_stream():
    # a log rotated at a day boundary: its later days come first
    params = cn.HubCorpusParams(
        nodes=40, days=12, hubs=4, hub_rate=20, background_rate=4, seed=3
    )
    sink = io.BytesIO()
    write_edge_log(cn.generate_hub_corpus(params), sink)
    lines = sink.getvalue().splitlines(keepends=True)
    days = [int(line.rsplit(b",", 1)[1]) // 86_400 for line in lines]
    cut = days.index(days[len(days) // 2])
    rotated = b"".join(lines[cut:] + lines[:cut])
    assert rotated != sink.getvalue()
    for collapse in (False, True):
        got = parse(rotated, collapse_duplicates=collapse)
        assert got == parse(sink.getvalue(), collapse_duplicates=collapse)
        assert got == ref_ingest.parse_edge_log(rotated, collapse_duplicates=collapse)
        stream = got[0]
        for column in (stream.senders, stream.recipients, stream.timestamps):
            assert not column.flags.writeable


# --- the word reads of the scanner at their boundaries ----------------------

_NAME_BYTES = "abcxyz019_~!@#$%^&*()[]{}<>?/|.:"  # printable, no delimiter
boundary_names = st.builds(
    lambda n, fill: (fill * n)[:n],
    st.one_of(
        st.integers(1, 65), st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    ),
    st.text(alphabet=_NAME_BYTES, min_size=1, max_size=70),
)
stamp_widths = st.one_of(
    st.integers(1, 19), st.sampled_from([7, 8, 9, 15, 16, 17, 18, 19])
)
boundary_stamps = st.one_of(
    # digits, or digits with one byte that is not a digit anywhere among them
    st.builds(
        lambda sign, n, digits, junk, at: sign
        + (digits * 19)[:n][: at % n]
        + junk
        + (digits * 19)[:n][at % n + len(junk) :],
        st.sampled_from(["", "", "+", "-"]),
        stamp_widths,
        st.text(alphabet="0123456789", min_size=1, max_size=19),
        st.sampled_from(["", "", "", ":", "/", "+", "-", "a"]),
        st.integers(0, 18),
    ),
    # dated values behind leading zeros, up to 19 digits
    st.builds(
        lambda v, n: "-" * (v < 0) + str(abs(v)).zfill(n),
        st.integers(_DATED.start, _DATED.stop - 1),
        stamp_widths,
    ),
    st.sampled_from(
        [
            str(_DATED.start), str(_DATED.start - 1), str(_DATED.stop - 1),
            str(_DATED.stop), "+" + str(_DATED.stop - 1), "", "+", "-",
            "9" * 18, "-" + "9" * 18, "1" + "0" * 18,
        ]
    ),
)


def _plainly_well_formed(line: bytes, cfg: LogFormatConfig) -> bool:
    """The rule a line must meet to take the vectorized path."""
    fields = line.removesuffix(b"\r").split(cfg.delimiter.encode())
    if len(fields) != 3 or not all(re.fullmatch(rb"[\x21-\x7e]*", f) for f in fields):
        return False
    named = dict(zip(cfg.columns, fields))
    stamp = named["timestamp"]
    return (
        all(1 <= len(named[c]) <= ingest._FAST_NAME_BYTES for c in ("sender", "recipient"))
        and re.fullmatch(rb"[+-]?[0-9]{1,18}", stamp) is not None
        and int(stamp) in _DATED
    )


@st.composite
def boundary_logs(draw):
    """Lines whose fields end on either side of every 8-byte word boundary,
    in any column order, with a delimiter that can be a sign."""
    cfg = LogFormatConfig(
        columns=tuple(draw(st.permutations(list(ingest._COLUMNS)))),
        delimiter=draw(st.sampled_from([",", "\t", "+", "-"])),
    )
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        fields = {
            "sender": draw(boundary_names),
            "recipient": draw(boundary_names),
            "timestamp": draw(boundary_stamps),
        }
        line = cfg.delimiter.join(fields[c] for c in cfg.columns).encode()
        lines.append(line + draw(st.sampled_from([b"", b"", b"\r"])))
    # the last line may end without an LF, and so end the last chunk
    data = b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))
    return cfg, data, lines


@settings(max_examples=300)
@given(boundary_logs(), st.sampled_from([1, 16, 100, None]))
def test_scanner_matches_reference_at_word_boundaries(log, chunk):
    cfg, data, lines = log
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(ingest, "_CHUNK_BYTES", chunk)
        got = _outcome(parse_edge_log, data, cfg, malformed_threshold=1.0)
    assert got == _outcome(ref_ingest.parse_edge_log, data, cfg, malformed_threshold=1.0)
    slow = sum(not _plainly_well_formed(line, cfg) for line in lines)
    assert got[1].fallback_lines == slow


# --- the vectorized writer against the frozen per-row writer ---------------

# gapped, negative and beyond-2**40 ids, so names are ids of any width
node_ids = st.one_of(
    st.integers(0, 9),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 2**40 + 1, -(2**40), -1, 0, 10**18]),
)
# non-ASCII labels of mixed lengths, one to four bytes a character
label_texts = st.one_of(
    st.text(alphabet="ab\u00e9\u65e5\U0001f600", min_size=1, max_size=12),
    st.sampled_from(["a", "x" * 70, "\u00e9" * 3, "a,b"]),
)
unix_stamps = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(10**12), 10**12),
    st.integers(-20, 20),
    st.sampled_from([_DATED.start, _DATED.stop - 1, -(2**63), 2**63 - 1, 10**4]),
)


@st.composite
def written_streams(draw):
    """A stream over arbitrary ids, labelled or not, and a format to write."""
    cfg = LogFormatConfig(
        columns=tuple(draw(st.permutations(list(ingest._COLUMNS)))),
        delimiter=draw(st.sampled_from([",", "\t"])),
        has_header=draw(st.booleans()),
    )
    ends = draw(
        st.lists(
            st.tuples(node_ids, node_ids).filter(lambda t: t[0] != t[1]), max_size=40
        )
    )
    times = sorted(draw(st.lists(unix_stamps, min_size=len(ends), max_size=len(ends))))
    labels = None
    if draw(st.booleans()):
        ids = sorted({u for pair in ends for u in pair})
        labels = {u: draw(label_texts) for u in ids if draw(st.booleans())}
    senders = [u for u, _ in ends]
    recipients = [v for _, v in ends]
    return TemporalEdgeStream(senders, recipients, times, labels), cfg


def _written(writer, stream, cfg):
    sink = io.BytesIO()
    writer(stream, sink, cfg)
    return sink.getvalue()


@settings(max_examples=300)
@given(written_streams(), st.sampled_from([1, 3, 16, None]))
def test_writer_matches_reference(case, chunk):
    stream, cfg = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # cross chunk boundaries, down to one row a chunk
            mp.setattr(ingest, "_WRITE_ROWS", chunk)
        got = _written(write_edge_log, stream, cfg)
    assert got == _written(ref_write.write_edge_log, stream, cfg)


@pytest.mark.parametrize("header", [False, True])
def test_writer_matches_reference_on_the_empty_stream(header):
    cfg = LogFormatConfig(has_header=header)
    empty = TemporalEdgeStream([], [], [])
    got = _written(write_edge_log, empty, cfg)
    assert got == _written(ref_write.write_edge_log, empty, cfg)
    assert got == (b"sender,recipient,timestamp\n" if header else b"")


@settings(max_examples=100)
@given(
    st.lists(st.tuples(node_ids, node_ids), max_size=40),
    st.sampled_from([1, 3, None]),
)
def test_edge_list_writer_matches_formatted_lines(pairs, chunk):
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    sink = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(ingest, "_WRITE_ROWS", chunk)
        ingest.write_edge_list(edges, sink)
        # and the reader gives back the pairs, less the self-pairs it refuses
        kept = edges[edges[:, 0] != edges[:, 1]]
        written = io.BytesIO()
        ingest.write_edge_list(kept, written)
    assert sink.getvalue() == "".join(f"{u} {v}\n" for u, v in pairs).encode()
    read = ingest.read_edge_list(io.BytesIO(written.getvalue()))
    assert read.dtype == np.int64 and read.tolist() == kept.tolist()


# edge-list ids as the writer writes them (the small ones make self-edges),
# then also with signs, leading zeros, 1, 18 and 19 digits, the int64
# extremes and one past them, and text that int() takes but the rules do not
written_ids = st.one_of(
    st.integers(-(10**18) + 1, 10**18 - 1), st.integers(0, 9)
).map(str)
edge_ids = st.one_of(
    written_ids,
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "000"]),
        st.integers(0, 10**19),
    ),
    st.sampled_from(
        [str(-(2**63)), str(2**63 - 1), str(2**63), str(-(2**63) - 1), "9" * 18,
         "1" + "0" * 18, "-0", "+", "1_0", "\u0663", "0x1"]
    ),
)


@st.composite
def edge_lists(draw):
    """Edge-list bytes: "u v" lines, half of them with the writer's ids
    alone; in half of the lists up to three lines or bytes that only the
    per-line rules may judge; and a byte-order mark before half of them."""
    ids = st.tuples(*[draw(st.sampled_from([written_ids, edge_ids]))] * 2).map(" ".join)
    data = "".join(f"{line}\n" for line in draw(st.lists(ids, max_size=8))).encode()
    odd = st.sampled_from(
        [b"", b"# comment", b"  ", b"1 2 3", b"x y", b"7", b"1 2 3\n7", b" 5 6",
         b"5 6 ", b"5\t6", b"5  6", b"5 6\r", b"\xff", b"5 \xc3\xa9", b"\xef\xbb\xbf5 6"]
    )
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        lines = data.split(b"\n")
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at] = [draw(odd)]
        data = b"\n".join(lines)
    if draw(st.booleans()):
        data = ingest._BOM + data
    return data


def _read_outcome(reader, data: bytes):
    try:
        pairs = reader(io.BytesIO(data))
    except IngestError as exc:
        return str(exc)
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    return pairs.tolist()


@settings(max_examples=400)
@given(edge_lists())
def test_edge_list_reader_matches_reference(data):
    assert _read_outcome(ingest.read_edge_list, data) == _read_outcome(
        ref_edges.read_edge_list, data
    )


def test_edge_list_in_the_writers_form_takes_the_numpy_passes():
    edges = np.array([[0, 1], [-5, 10**18 - 1], [3, -(10**17)], [1, 0]])
    written = io.BytesIO()
    ingest.write_edge_list(edges, written)
    data = written.getvalue()
    assert ingest._edge_pairs(data).tolist() == edges.tolist()
    # anything else leaves the whole list to the per-line rules
    for other in (
        b"",
        data[:-1],
        data + b"\n",
        data + b"# end\n",
        data.replace(b" ", b"\t", 1),
        data.replace(b"\n", b"\r\n", 1),
        data + b"5 5\n",
        data + b"1 2 3\n4\n",  # as many spaces as LFs, but not one a line
        data + b"-0 +0\n",
        data + b"1 " + b"1" * 19 + b"\n",
        data + b"+ 1\n",
    ):
        assert ingest._edge_pairs(other) is None, other
        assert _read_outcome(ingest.read_edge_list, other) == _read_outcome(
            ref_edges.read_edge_list, other
        )


class _Discard:
    """A sink that keeps only the number of bytes written to it."""

    size = 0

    def write(self, data) -> int:
        self.size += memoryview(data).nbytes
        return memoryview(data).nbytes


def test_writer_holds_one_chunk_at_a_time(monkeypatch):
    # 62,176 rows written 4,096 at a time: the traced peak stays under
    # 16 bytes a row of the stream (about 6 here); formatting every row
    # before the first write took about 180
    params = cn.HubCorpusParams(
        nodes=151, days=20, hubs=10, hub_rate=100, background_rate=15, seed=1
    )
    stream = cn.generate_hub_corpus(params)
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 4096, raising=False)
    sink = _Discard()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_edge_log(stream, sink)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(stream) == 62_176
    assert sink.size > 15 * len(stream)
    assert peak / len(stream) <= 16
