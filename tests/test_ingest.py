import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import commnet as cn
from commnet import (
    IngestReport,
    LogFormatConfig,
    TemporalEdgeStream,
    parse_edge_log,
    write_edge_log,
)
from commnet.errors import IngestError


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
    cfg = LogFormatConfig(timestamp_format="iso8601")
    stream, _ = parse(
        b"a,b,1970-01-01T00:01:00Z\nb,a,1970-01-01T02:01:00+02:00\n", cfg
    )
    # both instants are 60 seconds past midnight UTC
    assert stream.timestamps.tolist() == [60, 60]
    # fractional seconds floor, also before the epoch
    stream, _ = parse(
        b"a,b,1969-12-31T23:59:59.5Z\nb,a,1970-01-01T00:00:00.5Z\n", cfg
    )
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
    cfg = LogFormatConfig(has_header=True, timestamp_format="iso8601")
    stream, _ = parse(b"sender,recipient,timestamp\na,b,1979-05-27T07:32:00Z\n", cfg)
    buf = io.BytesIO()
    write_edge_log(stream, buf, cfg)
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
    with pytest.raises(ValueError):
        LogFormatConfig(timestamp_format="rfc822")


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
