import dataclasses
import hashlib
import importlib
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import commnet as cn
from commnet import centrality, cli, pipeline
from commnet.errors import ConfigError
from commnet.pipeline import (
    OWNED_NAMES,
    RUN_INFO_FILENAME,
    PipelineConfig,
    format_columns,
    run,
)

from . import brute
from .hub_log import write_hub_log

HUB_CORPUS = dict(nodes=60, days=20, hubs=5, hub_rate=20.0, background_rate=1.0, seed=0)


def hub_config(tmp_path: Path, corpus: dict = HUB_CORPUS, **overrides) -> PipelineConfig:
    """A run over the planted-hub ``corpus``, written to tmp_path/hub.log,
    with its outputs in tmp_path/out."""
    params = dict(
        output_dir=tmp_path / "out",
        input_path=write_hub_log(tmp_path / "hub.log", **corpus),
        k=5,
        k_values=(2, 5, 10),
        robustness_steps=(0.0, 0.1, 0.3),
        seed=0,
    )
    params.update(overrides)
    return PipelineConfig(**params)


def read_data_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().strip().split("\n")
    return [line.split() for line in lines[1:]]


def test_synthetic_run_report_contents(tmp_path):
    report = run(hub_config(tmp_path))
    assert not report.sections_empty
    assert report.window["days"] == 20
    assert report.corpus["source"]["path"] == str(tmp_path / "hub.log")
    assert report.consistency["k"] == 5
    assert report.consistency["count"] == 5  # hubs dominate daily and aggregate
    assert report.concentration["share"] >= 0.5
    assert len(report.daily_fits) == report.window["non_empty_days"]
    assert len(report.stability) == 5
    assert {row["class"] for row in report.stability} <= {
        "stable",
        "fluctuating",
        "inactive",
    }
    assert set(report.robustness) == {"random", "targeted"}

    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert written["schema_version"] == 1
    assert written["consistency"]["count"] == 5


def test_plot_files_shapes(tmp_path):
    report = run(hub_config(tmp_path))
    out = tmp_path / "out"
    corr_rows = read_data_rows(out / "correlation_series.dat")
    assert len(corr_rows) == report.window["days"] - 1
    day_files = sorted((out / "day_distributions").glob("day_*.dat"))
    assert len(day_files) == report.window["non_empty_days"]
    hub_files = sorted((out / "hub_series").glob("node_*.dat"))
    assert len(hub_files) == 5
    for f in hub_files:
        assert len(read_data_rows(f)) == report.window["days"]
    fit_rows = read_data_rows(out / "per_day_fits.dat")
    assert len(fit_rows) == report.window["non_empty_days"]
    for kind in ("random", "targeted"):
        rows = read_data_rows(out / f"robustness_{kind}.dat")
        assert len(rows) == 3


def test_report_internally_consistent(tmp_path):
    # direction=out, so total degree mass equals the message count and the
    # concentration share is recomputable from emitted tables
    report = run(hub_config(tmp_path))
    top_mass = sum(row["degree"] for row in report.concentration["top"])
    assert report.concentration["share"] == pytest.approx(
        top_mass / report.corpus["messages"], abs=1e-12
    )


def test_log10_columns_in_distribution_file(tmp_path):
    # star day: out-degrees 4,1,1,1,1 -> pdf {1: .8, 4: .2}
    rows = [("h", f"l{i}", 100 + i) for i in range(4)] + [
        (f"l{i}", "h", 200 + i) for i in range(4)
    ]
    log = "\n".join(f"{s},{r},{t}" for s, r, t in rows) + "\n"
    path = tmp_path / "star.log"
    path.write_text(log)
    cfg = PipelineConfig(
        output_dir=tmp_path / "out",
        input_path=path,
        k=2,
        k_values=(1, 2),
        robustness_steps=(0.0,),
    )
    run(cfg)
    rows = read_data_rows(tmp_path / "out" / "degree_distribution_aggregate.dat")
    by_k = {row[0]: row for row in rows}
    assert float(by_k["1"][3]) == pytest.approx(0.0)
    assert float(by_k["1"][4]) == pytest.approx(math.log10(0.8), abs=1e-9)
    assert float(by_k["4"][3]) == pytest.approx(0.60206, abs=1e-5)
    assert float(by_k["4"][4]) == pytest.approx(math.log10(0.2), abs=1e-9)


def test_empty_corpus_flags_sections(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("")
    cfg = PipelineConfig(
        output_dir=tmp_path / "out",
        input_path=path,
        window_start=brute.BASE_DATE,
        window_days=3,
    )
    report = run(cfg)
    assert report.sections_empty
    assert report.window["days"] == 3
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert written["sections_empty"] is True
    # the single-file temporal results exist as header-only files; no curve
    # runs and no per-day or per-hub file is written
    headers = {
        "correlation_series.dat": "day_a day_b r",
        "degree_distribution_aggregate.dat": "k pdf ccdf log10_k log10_pdf log10_ccdf",
        "overlap_vs_k.dat": "k mean_overlap",
        "top_frequency.dat": "node days_in_top_k",
        "per_day_fits.dat": "day gamma_ols r_squared gamma_mle ks xmin n_tail",
    }
    out = tmp_path / "out"
    assert {p.name for p in out.iterdir()} == {
        "report.json",
        RUN_INFO_FILENAME,
        *headers,
    }
    for name, header in headers.items():
        assert (out / name).read_text() == header + "\n", name


def test_file_mode_reports_ingest(tmp_path, micro_stream):
    path = tmp_path / "micro.log"
    path.write_bytes(brute.log_bytes())
    cfg = PipelineConfig(
        output_dir=tmp_path / "out",
        input_path=path,
        k=2,
        k_values=(1, 2),
        robustness_steps=(0.0,),
    )
    report = run(cfg)
    ingest = report.corpus["source"]["ingest"]
    assert ingest["accepted"] == len(brute.RAW_ROWS)
    # parse time and the lines the vectorized pass left over go to run_info.json
    info = json.loads((tmp_path / "out" / RUN_INFO_FILENAME).read_text())
    assert set(info["ingest"]) == {"seconds", "rows_read", "fallback_lines"}
    assert info["ingest"]["rows_read"] == ingest["rows_read"]
    assert info["ingest"]["fallback_lines"] == 0
    assert info["ingest"]["seconds"] >= 0
    assert "fallback_lines" not in ingest
    assert report.corpus["nodes"] == 5
    assert report.labels == {str(i): name for i, name in enumerate(brute.NAMES)}


@pytest.mark.parametrize("direction", ["out", "in", "total"])
def test_consistency_and_concentration_rank_one_aggregate(tmp_path, monkeypatch, direction):
    ranked = []

    def recording(fn):
        def wrapped(nodes, degrees, k):
            ranked.append(degrees)
            return fn(nodes, degrees, k)

        return wrapped

    # the consistency's top k, the concentration's top list and its share
    monkeypatch.setattr(cn.dynamics, "top_k", recording(cn.dynamics.top_k))
    monkeypatch.setattr(centrality, "top_k", recording(centrality.top_k))
    path = tmp_path / "micro.log"
    path.write_bytes(brute.log_bytes())
    cfg = PipelineConfig(
        output_dir=tmp_path / "out",
        input_path=path,
        direction=direction,
        k=2,
        k_values=(1, 2),
        robustness_steps=(0.0,),
    )
    report = run(cfg)
    assert len(ranked) == 3 and all(degrees is ranked[0] for degrees in ranked)
    aggregate = brute.degrees(None, direction)
    assert ranked[0].tolist() == [aggregate[node] for node in sorted(aggregate)]
    top = [{"node": node, "degree": deg} for node, deg in brute.top_k(aggregate, 2)]
    assert report.concentration["top"] == top
    assert report.consistency["count"] == brute.consistency_count(2, direction)


# each single-table plot file's columns, as (report entry key, ...) paths
FIT_COLUMNS = (
    ("day",),
    ("ols", "gamma"),
    ("ols", "r_squared"),
    ("mle", "gamma"),
    ("mle", "ks_statistic"),
    ("mle", "xmin"),
    ("mle", "n_tail"),
)
CURVE_COLUMNS = (
    ("fraction_removed",),
    ("giant_component_fraction",),
    ("average_path_length",),
)


def _lookup(entry: dict, path: tuple[str, ...]):
    for key in path:
        entry = entry[key] if entry is not None else None
    return entry


def mirrored_rows(report: dict) -> dict[str, list[list]]:
    """Every single-table plot file's rows as report.json states them."""
    def rows(entries, columns):
        return [[_lookup(e, c) for c in columns] for e in entries]

    pairs = report["correlation"]["pairs"] if report["correlation"] else []
    expected = {
        "per_day_fits.dat": rows(report["daily_fits"], FIT_COLUMNS),
        "correlation_series.dat": rows(pairs, [("day_a",), ("day_b",), ("r",)]),
        "overlap_vs_k.dat": rows(report["overlap_vs_k"], [("k",), ("mean_overlap",)]),
        "top_frequency.dat": rows(report["top_frequency"], [("node",), ("days",)]),
    }
    for kind, section in report["robustness"].items():
        expected[f"robustness_{kind}.dat"] = rows(section["points"], CURVE_COLUMNS)
    return expected


def read_plot_values(path: Path) -> list[list]:
    """A plot file's data rows as numbers, with nan read as null."""
    return [
        [None if math.isnan(float(v)) else float(v) for v in row]
        for row in read_data_rows(path)
    ]


@pytest.mark.parametrize(
    "case",
    ["micro", "micro-total-pdf", "one-day", "empty-window", "synthetic"],
)
def test_plot_files_equal_the_report_entries_they_mirror(tmp_path, case):
    log = tmp_path / "in.log"
    log.write_bytes(brute.log_bytes())
    argv = ["analyze", "--input", str(log)]
    if case == "micro-total-pdf":
        argv += ["--direction", "total", "--fit-target", "pdf", "--fit-xmin", "2"]
    elif case == "one-day":
        log.write_text("1,2,86400\n2,3,86500\n3,1,90000\n")
    elif case == "empty-window":
        log.write_text("")
        argv += ["--window-start", "2000-01-01", "--window-days", "3"]
    elif case == "synthetic":
        write_hub_log(log, nodes=40, days=12, hubs=4)
    out = tmp_path / "out"
    assert cli.main([*argv, "--output-dir", str(out)]) == (4 if case == "empty-window" else 0)
    report = json.loads((out / "report.json").read_text())
    expected = mirrored_rows(report)
    assert len(expected) == (4 if case == "empty-window" else 6)
    for name, rows in expected.items():
        want = [[None if v is None else float(v) for v in row] for row in rows]
        assert read_plot_values(out / name) == want, name
    if case in ("one-day", "empty-window"):
        assert report["correlation"] is None
        assert (out / "correlation_series.dat").read_text() == "day_a day_b r\n"
    if case == "empty-window":
        assert report["daily_fits"] == report["top_frequency"] == []
        assert (out / "per_day_fits.dat").read_text().count("\n") == 1
    if case.startswith("micro"):
        # the micro corpus is too small for any fit: every fit cell is nan
        assert all(e["ols"] is None and e["mle"] is None for e in report["daily_fits"])
    if case == "synthetic":
        assert all(e["mle"] is not None for e in report["daily_fits"])


@pytest.mark.parametrize("direction", ["out", "in", "total"])
def test_non_empty_day_histograms_have_positive_support(
    micro_stream, micro_window, direction
):
    # the pipeline calls powerlaw.histogram on every non-empty day and on the
    # aggregate without a guard: neither can be empty
    table = centrality.degree_table(micro_stream, micro_window, direction)
    messages = micro_window.message_counts()
    assert messages.any()
    for t in np.flatnonzero(messages):
        degrees = table.values[t]
        hist = cn.histogram(degrees)
        assert hist.n == np.count_nonzero(degrees)
        assert hist.support[0] >= 1
        assert int(degrees.sum()) == messages[t] * (2 if direction == "total" else 1)
    aggregate = cn.histogram(table.values.sum(axis=0))
    assert aggregate.support[0] >= 1


def test_determinism_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(hub_config(tmp_path, output_dir=out_a))
    run(hub_config(tmp_path, output_dir=out_b))
    files_a = sorted(
        p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()
    )
    files_b = sorted(
        p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()
    )
    assert files_a == files_b
    compared = 0
    for rel in files_a:
        if rel.name == RUN_INFO_FILENAME:
            continue
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
        compared += 1
    assert compared >= 5


def test_config_validation(tmp_path):
    with pytest.raises(TypeError, match="input_path"):
        PipelineConfig(output_dir=tmp_path)  # a run reads a log
    with pytest.raises(ConfigError):
        hub_config(tmp_path, k=0).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, k_values=(5, 3)).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, fit_target="cdf").validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, window_days=0).validate()
    with pytest.raises(ConfigError, match="^fit_xmin must be >= 1$"):
        hub_config(tmp_path, fit_xmin=0).validate()
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            hub_config(tmp_path, seed=seed).validate()
    hub_config(tmp_path, seed=2**64 - 1).validate()


def test_config_records_how_the_log_is_read(tmp_path):
    # every setting but the output directory, so two runs that read one log
    # differently tell apart by config alone
    path = tmp_path / "micro.log"
    path.write_bytes(brute.log_bytes())
    common = dict(input_path=path, k=2, k_values=(1, 2), robustness_steps=(0.0,))
    configs = [
        run(PipelineConfig(output_dir=tmp_path / str(collapse), collapse_duplicates=collapse,
                           malformed_threshold=0.5, **common)).config
        for collapse in (False, True)
    ]
    recorded = {f.name for f in dataclasses.fields(PipelineConfig)} - {"output_dir"}
    assert set(configs[0]) == recorded
    assert [c["collapse_duplicates"] for c in configs] == [False, True]
    assert configs[0]["malformed_threshold"] == 0.5
    assert configs[0]["log_format"] == {
        "columns": ["sender", "recipient", "timestamp"],
        "delimiter": ",",
        "has_header": False,
    }


def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch):
    import commnet.pipeline as pipeline_mod

    original = pipeline_mod.format_columns
    calls = {"n": 0}

    def failing(header, rows):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("disk is full")
        return original(header, rows)

    monkeypatch.setattr(pipeline_mod, "format_columns", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run(hub_config(tmp_path))
    leftovers = [p for p in out.rglob("*") if p.is_file()]
    assert leftovers == []


def test_output_dir_naming_a_file_fails_before_reading(tmp_path, monkeypatch):
    import commnet.pipeline as pipeline_mod

    def never(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(pipeline_mod, "read_log", never)
    log = tmp_path / "m.log"
    log.write_bytes(brute.log_bytes())
    target = tmp_path / "taken"
    target.write_bytes(b"not a directory\n")
    cfg = PipelineConfig(output_dir=target, input_path=log, robustness_steps=(0.0,))
    with pytest.raises(FileExistsError):
        run(cfg)
    assert target.read_bytes() == b"not a directory\n"



@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "hub.log", "--robustness-steps", "0.0,0.2"],
        ["robustness", "--input", "hub.log", "--steps", "0.0,0.2"],
    ],
    ids=["analyze-input", "robustness-input"],
)
def test_temporal_data_freed_before_robustness(tmp_path, monkeypatch, argv):
    # the curves read only the projection: the stream's columns and the
    # degree table must be gone when the robustness stage starts (the node
    # registry is shared with the graph by design, so it is not checked)
    write_hub_log(tmp_path / "hub.log", **HUB_CORPUS)
    monkeypatch.chdir(tmp_path)
    refs: list[weakref.ref] = []

    def keeping_stream_refs(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            stream = result[0]
            refs.extend(
                weakref.ref(c) for c in (stream.senders, stream.recipients, stream.timestamps)
            )
            return result

        return wrapped

    original_table = centrality.degree_table

    def table_keeping_ref(*args, **kwargs):
        table = original_table(*args, **kwargs)
        refs.append(weakref.ref(table.values))
        return table

    entered = []

    def checking_freed(fn):
        def wrapped(*args, **kwargs):
            assert refs and all(ref() is None for ref in refs), "still alive"
            entered.append(True)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(pipeline, "_acquire_stream", keeping_stream_refs(pipeline._acquire_stream))
    monkeypatch.setattr(cli, "read_log", keeping_stream_refs(cli.read_log))
    monkeypatch.setattr(centrality, "degree_table", table_keeping_ref)
    monkeypatch.setattr(pipeline, "robustness_stage", checking_freed(pipeline.robustness_stage))
    monkeypatch.setattr(cli, "robustness_stage", checking_freed(cli.robustness_stage))
    assert cli.main([*argv, "--output-dir", "out"]) == 0
    assert entered == [True]


def test_format_columns_empty_section():
    text = format_columns(("a", "b"), [])
    assert text == "a b\n"
    text2 = format_columns(("a",), [(None,), (1.5,)])
    assert text2 == "a\nnan\n1.5\n"


def test_curve_file_of_numpy_steps_is_that_of_python_floats(tmp_path):
    # a removal fraction given as a numpy float is written as its number,
    # as report.json holds it, and not as its repr (np.float64(0.2))
    g = cn.generate_ba(cn.BAParams(n=60, m=2, seed=1))
    strategies = [cn.RemovalStrategy("random")]
    steps = np.linspace(0, 0.4, 3)
    section = pipeline.robustness_stage(tmp_path / "numpy", g, strategies, list(steps))
    pipeline.robustness_stage(tmp_path / "python", g, strategies, steps.tolist())
    name = "robustness_random.dat"
    written = (tmp_path / "numpy" / name).read_bytes()
    assert written == (tmp_path / "python" / name).read_bytes()
    fractions = [line.split()[0] for line in written.decode().splitlines()[1:]]
    assert fractions == ["0.0", "0.2", "0.4"]
    assert [pt["fraction_removed"] for pt in section["random"]["points"]] == [0.0, 0.2, 0.4]


def test_rerun_replaces_previous_outputs(tmp_path):
    out = tmp_path / "out"
    run(hub_config(tmp_path))
    (out / "notes.txt").write_text("kept")
    (out / "plots").mkdir()
    (out / "plots" / "mine.dat").write_text("kept")
    small = dict(nodes=30, days=5, hubs=3, hub_rate=20.0, background_rate=1.0, seed=7)
    report = run(hub_config(tmp_path, small, k=3))
    day_files = list((out / "day_distributions").glob("*.dat"))
    assert len(day_files) == report.window["non_empty_days"] <= 5
    hubs = {f"node_{row['node']}.dat" for row in report.concentration["top"]}
    assert {p.name for p in (out / "hub_series").iterdir()} == hubs
    assert (out / "notes.txt").read_text() == "kept"
    assert (out / "plots" / "mine.dat").read_text() == "kept"
    names = {p.name for p in out.iterdir()}
    assert names == set(OWNED_NAMES) | {"notes.txt", "plots"}

    # an empty window writes no robustness curves, so the old ones must go
    empty = tmp_path / "empty.log"
    empty.write_text("")
    run(
        PipelineConfig(
            output_dir=out,
            input_path=empty,
            window_start=brute.BASE_DATE,
            window_days=2,
        )
    )
    names = {p.name for p in out.iterdir()}
    assert not any(n.startswith("robustness_") for n in names)
    assert "day_distributions" not in names and "hub_series" not in names
    assert {"notes.txt", "plots", "report.json"} <= names


# SHA-256 of every deterministic output of the acceptance-criterion-8 config.
# report.json and robustness_random.dat were re-recorded when the random
# order moved from numpy's Generator to SplitMix64 keys, report.json also
# when its "config" began to record the log format, malformed_threshold and
# collapse_duplicates. Since the corpus is read from its log rather than
# generated in the run, node ids come from the parse, by order of first
# appearance: the hub_series names, the files that break ties by id
# (top_frequency, overlap_vs_k, node_0), the MLE tail sums of per_day_fits
# (taken in position order), the random curve (an order of positions) and
# report.json were re-recorded then; the day distributions, the aggregate
# distribution, the correlation series and the targeted curve did not
# change. Each is the output that analyze --input already gave on the same
# log (report.json less its "config.synthetic" and "corpus.source.kind").
# report.json was re-recorded once more when the log format lost its
# timestamp_format field, as each stamp now says its own form: the file is
# the one before, less "config.log_format.timestamp_format"
PINNED_DIGESTS = {
    "correlation_series.dat": "b634ffa23cc2025bd7cdc97ed57d93d13575abb67a9b09fbf589d8881f305be6",
    "day_distributions/day_0000.dat": "3cd706ed8a6e8b910e6a202835e56fcc4563a19f2df50dd794d770eb598797e6",
    "day_distributions/day_0001.dat": "b4ce196d1b39ae058dbdb5f38a576dac929286722c0b484f7f8b35cc0a11f5d7",
    "day_distributions/day_0002.dat": "b3d4d3d28775f0eae9cfffbffd21656463edd7492d1717f6fe8c5edcc3f5eaf2",
    "day_distributions/day_0003.dat": "17d547e0314618eb04eab824054047ff822a94122e9c811b59d942056bdfa71b",
    "day_distributions/day_0004.dat": "6ecd28c0e861908fb10314cfd52c65c13637ef7dc5c06ace4fc82985a70a85cc",
    "day_distributions/day_0005.dat": "b5088191207563f9d8685497b79b592356da5f3702ad4173752a942b0941758d",
    "day_distributions/day_0006.dat": "03cf61fd5ed06eb8a5c56d0532feed0efdb641321d947c7a12dddc6057e9711b",
    "day_distributions/day_0007.dat": "f1bf8e2c8a323a3650899f5460255dee2310306fad89fc140b2e0e69cdee0598",
    "day_distributions/day_0008.dat": "95c062a64328c3e9263f2d828f4d3d2255716d92db5eba916bf01eb1f6f3b2ea",
    "day_distributions/day_0009.dat": "9016bab2e2c722b47085f564dfcca736de4d888e0529f6695acbc73be6bba4aa",
    "day_distributions/day_0010.dat": "aac06593fdc70a3f2d529e772eb5e62ef66bed4406c856ecd6d7395f694769ff",
    "day_distributions/day_0011.dat": "986445bda18ac1e000b2e41026682fa4df483ad825e5d99dd0cc93bd72c45ddd",
    "day_distributions/day_0012.dat": "56ba247e885ceefad36cdc23c6df7f8b9528c9349ba190ec98e241cd23e99717",
    "day_distributions/day_0013.dat": "bd9f51aea06bdb5999a2ba029dd7690ed5f0c8fb749fd6fda39af661cf55680f",
    "day_distributions/day_0014.dat": "bbfeb3c7c6f23d8f01d0f412daf242e0ed54844778619ab5728b1532a542bac9",
    "day_distributions/day_0015.dat": "3fef49b9c9591ba30eec4feef8e94f314fc97effee15367d53d488fd40eb3a67",
    "day_distributions/day_0016.dat": "51c24b10b49e9feebcd78aac29d51b077220820b4e16cd831b88a83a98e0e11a",
    "day_distributions/day_0017.dat": "1eee106f22b78352f4a815a1e30eb0e83c5e93e15ef080224dc1fe0d04e4be34",
    "day_distributions/day_0018.dat": "b1fd080e34f59ceb7e2af2f73205f1675f3a606ab79730f2d66376695a188f58",
    "day_distributions/day_0019.dat": "068045ed2bc056d8a016816a0e3be3496b75e8b9a5717f82c183084036b914ee",
    "day_distributions/day_0020.dat": "a21d8af61e40551a8e676154626d58e08aa8849d6ef909ca4618623c15b40496",
    "day_distributions/day_0021.dat": "1481a4058341b24a9fcc8b1f6db5f4315cac5c120831e50a78d80ceedfba7748",
    "day_distributions/day_0022.dat": "78149ca0147148f59a5913f09e174c8dbe26dc140a056ccc1b4bf8ad0d47e909",
    "day_distributions/day_0023.dat": "99a3bd19086d69603d266990109f4717b7aca34b0a1e3f78b10b5622e7129ca1",
    "day_distributions/day_0024.dat": "6280ed5a776923cada42c892e48ea0582ad3845977528e175ac0c2fbdef3650e",
    "degree_distribution_aggregate.dat": "bb9012fb38729fab9137e893353e36964f20d93223a1af849e5b729472d0ef3f",
    "hub_series/node_0.dat": "4ca132b40970eb452f37b41dc84fb2fec155df159a3eb85245f03e8b02e3da64",
    "hub_series/node_12.dat": "f1b1e18630fba89c1e3044400568f41e7dfa45792de850975eb765d842cfa2d0",
    "hub_series/node_16.dat": "995c6f3780f835f5bc3fd08b96027b9e265bf6401c928bca9affdbb257fcdc70",
    "hub_series/node_21.dat": "17354ef99244fc63090dd3ab4f0d62b79da604e246630fc8ccf2be3d02e56073",
    "hub_series/node_24.dat": "9f4002a2b567161ed7f735d94f1e8206fc70d1dd220deb4033e1bb1cdd9f00c7",
    "hub_series/node_46.dat": "a02fe79cf1c75930a79b997b157aee66962ab3938de2cddad0f4bf640fbda611",
    "overlap_vs_k.dat": "6020ed42240f4e654455f7aa45333c50c7923f162901fc3d8b34a3d91cb7b2f4",
    "per_day_fits.dat": "8b0912102ab2d21728b5e1423b0f93da107bd993eef46ecaee8744f5e9e01811",
    "report.json": "dda740983963c96884290ac906bf0a3ed16f002cd850037b79f28f64a4cc08c0",
    "robustness_random.dat": "964cacab978c5d525379fcf4b9799f84a401a857b351f241632a901891099290",
    "robustness_targeted.dat": "180fa0261fbd1720bfcd50fd61b1b683abf288b3367d53d5e2750c003223915a",
    "top_frequency.dat": "30066f7e0dc70427b9f09a53036d7befdcab901bef949d3aff2fd6c499df5737",
}


def pinned_config(**overrides) -> PipelineConfig:
    """The acceptance-criterion-8 run, over its corpus written to pinned.log
    in the working directory. report.json records that relative path, so
    the pinned bytes do not depend on where the test runs."""
    corpus = dict(nodes=80, days=25, hubs=6, hub_rate=15.0, background_rate=1.0, seed=7)
    return PipelineConfig(
        output_dir=Path("out"),
        input_path=write_hub_log(Path("pinned.log"), **corpus),
        k=6,
        k_values=(3, 6, 12),
        robustness_steps=(0.0, 0.1, 0.2),
        seed=7,
        **overrides,
    )


def output_digests(cfg: PipelineConfig) -> dict[str, str]:
    run(cfg)
    out = cfg.output_dir
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file() and p.name != RUN_INFO_FILENAME
    }


def test_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert output_digests(pinned_config()) == PINNED_DIGESTS


# the same corpus as above, ranked and fitted on total degree with the pdf
# target above a cutoff of 2: guards the in/total histogram and top-k paths.
# It was re-recorded for the same causes, the dropped timestamp_format too
PINNED_TOTAL_PDF_DIGESTS = {
    "correlation_series.dat": "5e1faffbfa12bf192e992dd18f7e578a5adb75b22ecd5ecf907b71a949144675",
    "day_distributions/day_0000.dat": "452afb1984a7ab6cfd64dfad485742f94ec870feabc1afea495fed21c722d728",
    "day_distributions/day_0001.dat": "907d8d1314b3e0c3e76765deedd0b7fb33ff108b9206cd0b3e994296c130f619",
    "day_distributions/day_0002.dat": "f7c4ffe80afbdb0dd21f3b726002357846ccc44d35160098afac4e399fbeab98",
    "day_distributions/day_0003.dat": "967ecdf7c466a9bf2ed1a532462ce2a7038cfc67598b3d970d04cf033c5a9732",
    "day_distributions/day_0004.dat": "3da511f29977ee12e40d06097d4c70ff49ae5712c01faa4fc8b9ea6a0b50e1f4",
    "day_distributions/day_0005.dat": "cf69b9ee847e9bacc375c30a6c5c06871ea8fdbe85061436bc3b6e7b5122a42c",
    "day_distributions/day_0006.dat": "1cec0e3b28996040d6be6991b5e14dd4f3bfe4a9750020d578213d402b9f54b1",
    "day_distributions/day_0007.dat": "29215bfc4af5b65ece826138c54b3b33592fe2ad52e9ae873b10f13a5f97c967",
    "day_distributions/day_0008.dat": "69c542aa7f4bcc09c458d800bcf479e68577e2ad76a477b829ad0bee325bf403",
    "day_distributions/day_0009.dat": "3280e1375969f2575fe4c814c1d276ddda3a2a4e74813e667d078a072180e082",
    "day_distributions/day_0010.dat": "141c9bb2be59570a268188b26c6a7db3feba43883a7356b0e11f0c7d3bc8e74e",
    "day_distributions/day_0011.dat": "9636fc568ddb5c0dc03e74e3ac787ba6aa5b66c9fee629df4a7d21a9d382710b",
    "day_distributions/day_0012.dat": "b0003e459014ead5993e3b20476d3810f83bea679893e9a3713214a586f2c6df",
    "day_distributions/day_0013.dat": "9ca572ee1b7fc46b75c078180b45e09f2f24178558d14be3ab51f80aab64cc1b",
    "day_distributions/day_0014.dat": "0d7ed49f800cbd1c1ab7875629285e21e2aca5eae591e9925e3e16b57336ba28",
    "day_distributions/day_0015.dat": "5b21b13d1b6edc03084f5b4078272aee949ca6a0256d2a38b1ef99f682b26214",
    "day_distributions/day_0016.dat": "07de33435f79354cc522ea93df820ac640e323831b66b6078ef95ce559fe9053",
    "day_distributions/day_0017.dat": "da13f3dd2348761eaf499a18eeb5b47d52bc6e477fa1db7d4124fd4bcd0a04f0",
    "day_distributions/day_0018.dat": "74916a47c6a3cf22b780bbcf15b1e281bf459e969dd144b65580a564981636d6",
    "day_distributions/day_0019.dat": "2e6228dd4aaa979721c682c6c9759d7df2ad2c94f0f183358d75e9c0e3859509",
    "day_distributions/day_0020.dat": "f0f743c4d91bcfe7c481be2225ec274550fe13605685a69028dd4b8b32640f10",
    "day_distributions/day_0021.dat": "0f34c3bf26ce1423eb6835d2016c04f32c6eafc587ab1dd8eb6b8a9580dfa7d2",
    "day_distributions/day_0022.dat": "f48644442c0ed34b296fece138368b6a0e9a4f95e6a6598e0b919b37a5a3a32e",
    "day_distributions/day_0023.dat": "bf98f1317cbd592b74afc8b0d4f5efd03b03b6750ead13671c94ceeb5bbb04b7",
    "day_distributions/day_0024.dat": "eeaaa692cfd472cb1cb25dc4b83aff813cd6d0460f71cda61278fa990ea6a8c0",
    "degree_distribution_aggregate.dat": "6f5f4fae4b0a41efa6d2fc12c9d41d218907ef494309187506e86aad0a6c905a",
    "hub_series/node_0.dat": "3a8d15f8742b06ea40736cf11f0f12153a0b8dd4f548948fda9dfd1e363a0145",
    "hub_series/node_12.dat": "e9166e253c1444530d236e6c0252cd6b17cad5fea9471800300ab25d6f550336",
    "hub_series/node_16.dat": "d065189cee18f5974b60d9d04784242477d01baa4f10dab32feb46707fb3b37a",
    "hub_series/node_21.dat": "1616e32b18d96d911416284041d5cd988d92c6c5d406a11d8fca585208fa0851",
    "hub_series/node_24.dat": "b49dcdbfc3eb56a0bf3b2e3630dcd7ba796b06eccd788fa9c50ba91c96aaa43e",
    "hub_series/node_46.dat": "6293fe3ab95a42c0b270ff98b16264ce431441b1ac8f05948dfe44186c5abb6f",
    "overlap_vs_k.dat": "3a27e95d5159750762b0d4b581aadce45d357aa017299075ae7a541c78a903a3",
    "per_day_fits.dat": "05faca79ca1be00ee1769248e37a5360a9bb162aa52630de1861fb9a7e702a6f",
    "report.json": "0bf67db7492c7f257798e8bf5ca15fb22075716c539bf88ac35676066c460ca6",
    "robustness_random.dat": "964cacab978c5d525379fcf4b9799f84a401a857b351f241632a901891099290",
    "robustness_targeted.dat": "180fa0261fbd1720bfcd50fd61b1b683abf288b3367d53d5e2750c003223915a",
    "top_frequency.dat": "30066f7e0dc70427b9f09a53036d7befdcab901bef949d3aff2fd6c499df5737",
}


TOTAL_PDF = dict(direction="total", fit_target="pdf", fit_xmin=2)


def test_output_bytes_pinned_total_pdf(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert output_digests(pinned_config(**TOTAL_PDF)) == PINNED_TOTAL_PDF_DIGESTS


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 computes it: exact while the items
    are ints, then Neumaier-compensated over a run of floats, plain ``+`` for
    any other type."""
    items = iter(iterable)
    total = start
    for item in items:
        if type(total) is int and type(item) is int:
            total += item
            continue
        total = total + item
        if type(total) is not float:
            continue
        hi, c = total, 0.0
        for x in items:
            if type(x) is float:
                t = hi + x
                c += (hi - t) + x if abs(hi) >= abs(x) else (x - t) + hi
                hi = t
            elif type(x) is int:
                hi += float(x)
            else:
                total = (hi + c if c and math.isfinite(c) else hi) + x
                break
        else:
            return hi + c if c and math.isfinite(c) else hi
    return total


@pytest.mark.parametrize(
    "overrides, pinned",
    [({}, PINNED_DIGESTS), (TOTAL_PDF, PINNED_TOTAL_PDF_DIGESTS)],
    ids=["out", "total-pdf"],
)
def test_output_bytes_pinned_under_compensated_sum(
    tmp_path, monkeypatch, overrides, pinned
):
    # Python 3.12 changed float sum() to a compensated sum; the pinned bytes
    # must not depend on which one the interpreter has
    assert compensated_sum([0.1] * 10) == 1.0  # a plain float sum gives 0.999...
    # run loads the analysis modules itself; load them first, so that they
    # are among the modules patched whichever test ran before
    analysis = [
        importlib.import_module(f"commnet.{name}")
        for name in ("centrality", "dynamics", "powerlaw")
    ]
    for name, module in list(sys.modules.items()):
        if name == "commnet" or name.startswith("commnet."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert all(module.sum is compensated_sum for module in analysis)
    monkeypatch.chdir(tmp_path)
    assert output_digests(pinned_config(**overrides)) == pinned
