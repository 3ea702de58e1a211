import datetime as dt
import io
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commnet import (
    RemovalStrategy,
    TemporalEdgeStream,
    UndirectedGraph,
    degree_table,
    robustness_curves,
    slice_days,
    undirected_projection,
    write_edge_log,
)
from commnet import temporal
from commnet.errors import OrderingError, WindowError
from commnet.temporal import (
    MAX_WINDOW_DAYS,
    SECONDS_PER_DAY,
    date_to_day,
    day_date,
    day_number,
)

from . import brute
from .test_robustness import _nx_curve, _same

D1 = date_to_day(dt.date(2001, 3, 5))


def _edge(u, v, day, offset):
    return u, v, day * SECONDS_PER_DAY + offset


def _stream(edges):
    """Stream from (sender, recipient, timestamp) triples."""
    edges = list(edges)
    return TemporalEdgeStream(
        [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]
    )


def _day_edges(stream, window, t):
    """Message count per (sender, recipient) pair on window day t."""
    on_day = slice(window.indptr[t], window.indptr[t + 1])
    pairs = zip(stream.senders[on_day].tolist(), stream.recipients[on_day].tolist())
    return dict(Counter(pairs))


def test_two_day_bucketing():
    stream = _stream(
        [
            _edge(0, 1, D1, 10 * 3600),
            _edge(0, 2, D1, 23 * 3600 + 59 * 60),
            _edge(1, 0, D1 + 1, 60),
        ]
    )
    window = slice_days(stream)
    assert window.length == 2
    assert window.message_counts().tolist() == [2, 1]
    assert _day_edges(stream, window, 0) == {(0, 1): 1, (0, 2): 1}
    assert _day_edges(stream, window, 1) == {(1, 0): 1}
    # messages 0 and 1 fall on day 0, message 2 on day 1
    assert window.indptr.tolist() == [0, 2, 3]
    assert window.date(0) == dt.date(2001, 3, 5)


def test_empty_stream_window():
    window = slice_days(_stream([]), dt.date(2001, 3, 5), num_days=3)
    assert window.length == 3
    assert window.message_counts().tolist() == [0, 0, 0]
    assert [window.date(t) for t in range(3)] == [
        dt.date(2001, 3, 5), dt.date(2001, 3, 6), dt.date(2001, 3, 7)
    ]


def test_empty_stream_without_window():
    assert slice_days(_stream([])).length == 0
    with pytest.raises(ValueError):
        slice_days(_stream([]), num_days=2)


def test_midnight_edge_goes_to_next_day():
    stream = _stream(
        [_edge(0, 1, D1, 100), _edge(0, 1, D1 + 1, 0)]  # exactly 00:00:00
    )
    assert slice_days(stream).message_counts().tolist() == [1, 1]


def test_unsorted_stream_rejected():
    with pytest.raises(OrderingError):
        _stream([_edge(0, 1, D1, 100), _edge(0, 1, D1, 50)])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        TemporalEdgeStream([3], [3], [1000])


def test_day_origin_after_first_edge():
    stream = _stream([_edge(0, 1, D1, 0)])
    with pytest.raises(WindowError):
        slice_days(stream, day_date(D1 + 1))


def test_window_too_short():
    stream = _stream([_edge(0, 1, D1, 0), _edge(0, 1, D1 + 5, 0)])
    with pytest.raises(WindowError):
        slice_days(stream, day_date(D1), num_days=3)


def test_window_length_out_of_range():
    stream = _stream([_edge(0, 1, D1, 0)])
    with pytest.raises(ValueError, match="^num_days must be >= 1$"):
        slice_days(stream, day_date(D1), num_days=0)
    with pytest.raises(WindowError, match=f"span {MAX_WINDOW_DAYS + 1} days, more than"):
        slice_days(stream, day_date(D1), num_days=MAX_WINDOW_DAYS + 1)


def test_degree_table_rejects_a_window_of_another_stream():
    stream = _stream([_edge(0, 1, D1, 0), _edge(0, 1, D1, 1)])
    other = _stream([_edge(0, 1, D1, 0)])
    with pytest.raises(ValueError, match="^window was not sliced from this stream$"):
        degree_table(stream, slice_days(other))


def test_day_without_calendar_date():
    with pytest.raises(WindowError):
        slice_days(_stream([(0, 1, 9_000_000_000_000_000_000)]))
    first_second = date_to_day(dt.date.min) * SECONDS_PER_DAY  # 0001-01-01
    assert slice_days(_stream([(0, 1, first_second)])).date(0) == dt.date.min
    with pytest.raises(WindowError):
        slice_days(_stream([(0, 1, first_second)]), tz_offset_seconds=-1)


def test_window_pads_trailing_empty_days():
    stream = _stream([_edge(0, 1, D1, 0)])
    window = slice_days(stream, day_date(D1), num_days=4)
    assert window.length == 4
    assert (window.message_counts() == 0).tolist() == [False, True, True, True]


def test_tz_offset_shifts_bucketing():
    # 23:00 UTC lands on the next local day under a +2h offset
    stream = _stream([_edge(0, 1, D1, 23 * 3600)])
    assert day_number(stream.timestamps[0]) == D1
    assert day_number(stream.timestamps[0], 2 * 3600) == D1 + 1
    window = slice_days(stream, tz_offset_seconds=2 * 3600)
    assert window.date(0) == day_date(D1 + 1)


@settings(max_examples=200)
@given(
    st.lists(st.integers(-3 * SECONDS_PER_DAY, 3 * SECONDS_PER_DAY), min_size=1),
    st.integers(-(SECONDS_PER_DAY - 1), SECONDS_PER_DAY - 1),
    st.integers(0, 2),
    st.booleans(),
)
@example([-1, 0, SECONDS_PER_DAY - 1, SECONDS_PER_DAY], 0, 0, False)
@example([-3600, 0, 3600], 3600, 0, True)
def test_window_offsets_match_day_numbers(stamps, offset, lead, explicit):
    stamps.sort()
    stream = _stream((0, 1, D1 * SECONDS_PER_DAY + ts) for ts in stamps)
    first = day_number(int(stream.timestamps[0]), offset)
    last = day_number(int(stream.timestamps[-1]), offset)
    if explicit:  # an explicit window padded by `lead` days on either side
        window = slice_days(
            stream, day_date(first - lead), num_days=last - first + 1 + 2 * lead,
            tz_offset_seconds=offset,
        )
    else:
        window = slice_days(stream, tz_offset_seconds=offset)
    assert window.indptr[0] == 0 and window.indptr[-1] == len(stream)
    day = np.repeat(np.arange(window.length), window.message_counts())
    assert (day + window.origin == day_number(stream.timestamps, offset)).all()


def _traced_peak(fn, *args):
    """The result of fn(*args) and the most memory tracemalloc saw it hold
    beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_day_slicing_and_degree_table_allocate_nothing_per_message():
    # 300,000 messages among 20 nodes over 10 days: the window is 11
    # offsets and the table 10 x 20 degrees; a day index per message alone
    # took 8 bytes a message
    rng = np.random.default_rng(0)
    n = 300_000
    senders = rng.integers(0, 20, n)
    recipients = (senders + rng.integers(1, 20, n)) % 20
    stamps = np.sort(rng.integers(0, 10 * SECONDS_PER_DAY, n)) + D1 * SECONDS_PER_DAY
    stream = TemporalEdgeStream(senders, recipients, stamps)
    del senders, recipients, stamps
    window, peak = _traced_peak(slice_days, stream)
    assert window.length == 10 and peak < 1 << 12
    for direction in ("out", "in", "total"):
        table, peak = _traced_peak(degree_table, stream, window, direction)
        assert table.values.sum() == n * (1 + (direction == "total"))
        assert peak < table.values.nbytes + (1 << 16)


def test_projection_holds_the_distinct_keys_and_one_block(monkeypatch):
    # 100,000 messages over the 45 pairs of 10 nodes, 4,096 pairs a block:
    # besides the graph, the peak is one block's keys and temporaries and
    # the blocks' distinct keys; a key per message alone took 8 bytes each
    monkeypatch.setattr(temporal, "_BLOCK_ROWS", 4096)
    rng = np.random.default_rng(0)
    n = 100_000
    senders = rng.integers(0, 10, n)
    recipients = (senders + rng.integers(1, 10, n)) % 10
    stream = TemporalEdgeStream(senders, recipients, np.arange(n))
    del senders, recipients
    graph, peak = _traced_peak(undirected_projection, stream)
    assert len(graph.edges) == 45
    blocks = -(-n // 4096)
    assert peak < 40 * 4096 + 8 * 45 * blocks + (1 << 16)


def test_aggregate_sums_multiplicity():
    # two days of {(0, 1): 2}; the aggregate degree is the column sum
    stream = _stream([_edge(0, 1, D1 + i, j) for i in range(2) for j in range(2)])
    table = degree_table(stream, slice_days(stream), "out")
    assert table.values.sum(axis=0).tolist() == [4, 0]
    assert table.nodes.tolist() == [0, 1]


def test_aggregate_identity_and_empty():
    stream = _stream([_edge(0, 1, D1, 0), _edge(0, 1, D1, 1)])
    table = degree_table(stream, slice_days(stream), "total")
    assert table.values.sum(axis=0).tolist() == table.values[0].tolist()
    empty = degree_table(_stream([]), slice_days(_stream([])))
    assert empty.values.sum(axis=0).tolist() == [] and empty.nodes.tolist() == []


def test_undirected_projection():
    stream = _stream(
        [_edge(0, 1, D1, 0), _edge(0, 1, D1, 1), _edge(0, 1, D1, 2), _edge(1, 0, D1, 3)]
    )
    g = undirected_projection(stream)
    assert g.edges.tolist() == [[0, 1]]

    assert undirected_projection(_stream([])).edges.tolist() == []

    stream2 = _stream([_edge(0, 1, D1, 0), _edge(2, 3, D1, 1)])
    g2 = undirected_projection(stream2)
    assert g2.edges.tolist() == [[0, 1], [2, 3]]


def test_undirected_graph_rejects_self_edges():
    with pytest.raises(ValueError):
        UndirectedGraph([(2, 2)])


def test_undirected_graph_isolates_kept():
    g = UndirectedGraph([(0, 1)], nodes=[5])
    assert g.nodes.tolist() == [0, 1, 5]
    assert np.diff(g.adjacency.indptr).tolist() == [1, 1, 0]
    # no edges at all, with no nodes or with isolates only
    for empty, nodes in (
        (UndirectedGraph(), []),
        (undirected_projection(_stream([])), []),
        (UndirectedGraph((), nodes=[3, 1]), [1, 3]),
    ):
        assert empty.nodes.tolist() == nodes
        assert empty.adjacency.indptr.tolist() == [0] * (len(nodes) + 1)
        assert empty.adjacency.indices.tolist() == []
        assert empty.edges.shape == (0, 2)


def test_undirected_graph_arrays():
    # pairs in any order and orientation, repeated, on ids with gaps
    g = UndirectedGraph([(9, 2), (2, 9), (4, 2), (-3, 9)], nodes=[7, 2])
    assert g.nodes.dtype == g.edges.dtype == np.int64
    assert g.nodes.tolist() == [-3, 2, 4, 7, 9]
    assert g.edges.tolist() == [[-3, 9], [2, 4], [2, 9]]
    assert not g.nodes.flags.writeable and not g.edges.flags.writeable
    adj = g.adjacency
    assert adj.indptr.dtype == adj.indices.dtype == np.int64
    assert not adj.indptr.flags.writeable and not adj.indices.flags.writeable
    # symmetric: the (row, column) entries, in CSR order, are the sorted
    # (column, row) entries
    rows = np.repeat(np.arange(5), np.diff(adj.indptr)).tolist()
    cols = adj.indices.tolist()
    assert list(zip(rows, cols)) == sorted(zip(cols, rows))
    # row 1 (node 2) holds positions 2 and 4 (nodes 4 and 9), ascending
    assert adj.indices[adj.indptr[1] : adj.indptr[2]].tolist() == [2, 4]


edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=6 * SECONDS_PER_DAY - 1),
    ).filter(lambda t: t[0] != t[1]),
    max_size=60,
)


@given(edges_strategy)
def test_slicing_conserves_messages(raw):
    raw.sort(key=lambda t: t[2])
    stream = _stream((u, v, D1 * SECONDS_PER_DAY + ts) for u, v, ts in raw)
    window = slice_days(stream)
    assert window.message_counts().sum() == len(stream)
    # aggregate equals bucketing the stream into a single bin
    table = degree_table(stream, window, "out")
    direct = {u: 0 for u in stream.node_registry.tolist()}
    for u, _, _ in raw:
        direct[u] += 1
    aggregate = table.values.sum(axis=0).tolist()
    assert dict(zip(table.nodes.tolist(), aggregate)) == direct
    # registry invariant under slicing and aggregation
    assert table.nodes.tolist() == sorted({u for u, _, _ in raw} | {v for _, v, _ in raw})


def test_stream_columns_are_read_only():
    stream = _stream([_edge(0, 1, D1, 0)])
    window = slice_days(stream)
    for column in (
        stream.senders, stream.recipients, stream.timestamps,
        stream.node_registry, window.indptr,
    ):
        with pytest.raises(ValueError):
            column[0] = 5


@given(edges_strategy, st.sampled_from(["out", "in", "total"]))
def test_degree_table_counts_each_day(raw, direction):
    # ids 0..8 drawn at random leave gaps in the registry
    raw.sort(key=lambda t: t[2])
    stream = _stream((u, v, D1 * SECONDS_PER_DAY + ts) for u, v, ts in raw)
    window = slice_days(stream)
    table = degree_table(stream, window, direction)
    expected = {(t, u): 0 for t in range(window.length) for u in table.nodes}
    for u, v, ts in raw:
        t = ts // SECONDS_PER_DAY - window.origin + D1
        for end, counted in ((u, "in"), (v, "out")):
            if direction != counted:
                expected[t, end] += 1
    got = {
        (t, u): table.values[t, j]
        for t in range(window.length)
        for j, u in enumerate(table.nodes)
    }
    assert got == expected


# ---------------------------------------------------------------------------
# node ids mapped to positions once: gapped, negative and beyond 2**40
# ---------------------------------------------------------------------------

INT64_IDS = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    min_size=len(brute.NAMES),
    max_size=len(brute.NAMES),
    unique=True,
)


@settings(max_examples=40)
@given(INT64_IDS)
@example([2**41 + 3, -5, 2**62, -(2**40), 17])
def test_gapped_ids_match_brute_and_networkx(ids):
    # the brute micro corpus with node i renamed ids[i]; id order differs
    # from first appearance, so positions are not appearance order either
    rows = [(ids[brute.IDS[s]], ids[brute.IDS[r]], t) for s, r, t in brute.RAW_ROWS]
    stream = _stream(rows)
    assert stream.node_registry.tolist() == sorted(ids)
    sink = io.BytesIO()
    write_edge_log(stream, sink)
    written = sink.getvalue().decode().splitlines()
    assert written == [f"{s},{r},{t}" for s, r, t in rows]

    window = slice_days(stream)
    for direction in ("out", "in", "total"):
        table = degree_table(stream, window, direction)
        for t in range(brute.N_DAYS):
            expected = {ids[i]: d for i, d in brute.degrees(t, direction).items()}
            assert dict(zip(table.nodes.tolist(), table.values[t].tolist())) == expected
            ranked = table.nodes[table.daily_ranking[t]].tolist()
            assert ranked == [node for node, _ in brute.top_k(expected, len(ids))]
        for i, node in enumerate(ids):
            assert table.column(node).tolist() == brute.node_values(i, direction)

    graph = undirected_projection(stream)
    ref = nx.Graph((s, r) for s, r, _ in rows)
    assert graph == UndirectedGraph(list(ref.edges))
    assert graph.edges.tolist() == sorted(sorted(edge) for edge in ref.edges)
    adj = graph.adjacency
    for i, node in enumerate(graph.nodes.tolist()):
        neighbours = graph.nodes[adj.indices[adj.indptr[i] : adj.indptr[i + 1]]]
        assert neighbours.tolist() == sorted(ref[node])

    steps = [k / len(ids) for k in range(len(ids))]
    for strategy in (
        RemovalStrategy("random", seed=3),
        RemovalStrategy("targeted"),
        RemovalStrategy("targeted", adaptive=False),
    ):
        points = robustness_curves(graph, [strategy], steps)[0].points
        expected = _nx_curve(graph, strategy, steps)
        assert [(p.fraction_removed, p.giant_component_fraction) for p in points] == [
            (fraction, giant) for fraction, giant, _ in expected
        ]
        for point, (_, _, apl) in zip(points, expected):
            assert _same(point.average_path_length, apl)


def test_stream_from_positions_adopts_its_columns():
    senders = np.array([0, 2, 1], dtype=np.int32)
    recipients = np.array([1, 0, 2], dtype=np.int32)
    stamps, registry = np.array([5, 5, 9]), np.array([-4, 10, 2**50])
    stream = TemporalEdgeStream.from_positions(senders, recipients, stamps, registry)
    assert stream.senders is senders and stream.recipients is recipients
    assert stream.timestamps is stamps and stream.node_registry is registry
    assert not senders.flags.writeable and not stamps.flags.writeable
    assert stream == TemporalEdgeStream([-4, 2**50, 10], [10, -4, 2**50], [5, 5, 9])
    # the constructor maps ids to positions and narrows them once
    assert TemporalEdgeStream([1], [2], [3]).senders.dtype == np.int32


def test_projection_keys_past_int32():
    # 70,000 nodes: the key lo * n + hi of the last positions passes 2**31,
    # so the int32 positions must be widened before they are multiplied
    n = 70_000
    registry = np.arange(n, dtype=np.int64) * 3 - 7
    senders = np.array([n - 1, n - 3, 0, n - 2, n - 1], dtype=np.int32)
    recipients = np.array([n - 2, n - 1, n - 1, n - 1, 1], dtype=np.int32)
    assert (n - 2) * n + (n - 1) > 2**31
    stream = TemporalEdgeStream.from_positions(
        senders, recipients, np.arange(5), registry
    )
    graph = undirected_projection(stream)
    # UndirectedGraph maps ids to int64 positions
    ids = np.column_stack([registry[senders], registry[recipients]])
    assert graph == UndirectedGraph(ids, nodes=registry)
    last = graph.adjacency.indptr[n - 1]
    assert graph.adjacency.indices[last:].tolist() == [0, 1, n - 3, n - 2]


@pytest.mark.parametrize(
    "senders, recipients, stamps, registry, error",
    [
        ([0, 1], [1], [1, 2], [3, 4], ValueError),  # lengths differ
        ([0], [1], [1], [4, 3], ValueError),  # registry not ascending
        ([0], [2], [1], [3, 4], ValueError),  # position past the registry
        ([-1], [0], [1], [3, 4], ValueError),  # negative position
        ([0], [0], [1], [3, 4], ValueError),  # self-loop
        ([0, 1], [1, 0], [2, 1], [3, 4], OrderingError),
    ],
)
def test_stream_from_positions_rejects(senders, recipients, stamps, registry, error):
    with pytest.raises(error):
        TemporalEdgeStream.from_positions(
            *map(np.array, (senders, recipients, stamps, registry))
        )
