import dataclasses
import datetime as dt
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commnet
from commnet import cli, pipeline, robustness, temporal
from commnet.cli import main
from commnet.ingest import LogFormatConfig, parse_edge_log

from . import brute, ref_write
from .hub_log import write_hub_log


def test_an_iso_log_reads_as_its_unix_log(tmp_path, capsys):
    # the same rows with ISO-8601 stamps need no flag: analyze writes the
    # same outputs, report.json apart from the input path, and ingest
    # --output writes them back as unix seconds
    unix = write_hub_log(tmp_path / "hub.log", nodes=20, days=5, hubs=2, hub_rate=6.0)
    stream, _ = parse_edge_log(unix.read_bytes())
    iso = tmp_path / "hub.iso.log"
    with open(iso, "wb") as fh:
        ref_write.write_edge_log(stream, fh, iso=True)
    assert b"T" in iso.read_bytes()
    assert main(["ingest", "--input", str(iso), "--output", str(tmp_path / "back.log")]) == 0
    assert (tmp_path / "back.log").read_bytes() == unix.read_bytes()
    outputs, reports = [], []
    for log in (unix, iso):
        out = tmp_path / f"{log.name}.out"
        assert main(["analyze", "--input", str(log), "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        del report["config"]["input_path"], report["corpus"]["source"]["path"]
        outputs.append(out)
        reports.append(report)
    assert reports[0] == reports[1]
    names = [
        path.relative_to(outputs[0])
        for path in outputs[0].rglob("*")
        if path.is_file() and path.name not in ("report.json", "run_info.json")
    ]
    assert names
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    capsys.readouterr()


def test_generate_then_ingest_then_analyze(tmp_path, capsys):
    corpus = tmp_path / "corpus.log"
    rc = main(
        [
            "generate",
            "hub-corpus",
            "--nodes", "40",
            "--days", "8",
            "--hubs", "3",
            "--hub-rate", "10",
            "--background-rate", "1",
            "--seed", "5",
            "--output", str(corpus),
        ]
    )
    assert rc == 0
    assert corpus.exists()
    capsys.readouterr()

    rc = main(["ingest", "--input", str(corpus)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["malformed"] == 0
    assert summary["rows_read"] == summary["accepted"]

    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--input", str(corpus),
            "--k", "3",
            "--k-values", "2,3",
            "--robustness-steps", "0.0,0.2",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["consistency"]["k"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--synthetic-hubs"],
        ["--input", "LOG", "--synthetic-hubs"],
        *(["--input", "LOG", flag, "3"] for flag in (
            "--nodes", "--days", "--hubs", "--hub-rate", "--background-rate"
        )),
        [],
    ],
    ids=["synthetic-hubs", "synthetic-hubs-and-input", "nodes", "days", "hubs",
         "hub-rate", "background-rate", "no-input"],
)
def test_analyze_reads_only_a_log(tmp_path, capsys, argv):
    # a generated corpus is analyzed from the log generate writes: the
    # corpus flags are generate's alone, and analyze needs --input
    log = write_hub_log(tmp_path / "hub.log", nodes=10, days=2, hubs=1)
    out = tmp_path / "out"
    argv = [str(log) if a == "LOG" else a for a in argv]
    with pytest.raises(SystemExit) as exited:
        main(["analyze", *argv, "--output-dir", str(out)])
    assert exited.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, params",
    [
        (["hub-corpus"], commnet.HubCorpusParams),
        (["ba", "--n", "10", "--m", "2"], commnet.BAParams),
        (["er", "--n", "10", "--p", "0.5"], commnet.ERParams),
    ],
    ids=["hub-corpus", "ba", "er"],
)
def test_generate_defaults_are_the_params(argv, params):
    # every generator parameter with a default has a flag that takes it
    args = cli.build_parser().parse_args(["generate", *argv, "--output", "x"])
    defaults = {
        f.name: f.default for f in dataclasses.fields(params)
        if f.default is not dataclasses.MISSING
    }
    assert defaults and {name: getattr(args, name) for name in defaults} == defaults


def test_explicit_window_days_is_recorded(tmp_path):
    log = write_hub_log(tmp_path / "hub.log", nodes=20, days=131, hubs=2, hub_rate=5.0)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--input", str(log),
            "--robustness-steps", "0.0",
            "--window-days", "131",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["window_days"] == 131
    assert report["window"]["days"] == 131
    assert report["config"]["k"] == 10
    assert report["config"]["direction"] == "out"


def _analyze_config(monkeypatch, tmp_path, *argv: str) -> pipeline.PipelineConfig:
    """The PipelineConfig that ``analyze`` builds from ``argv``; nothing runs."""
    built = []

    def capture(cfg):
        built.append(cfg)
        return pipeline.Report(config={}, window={}, corpus={}, labels={})

    monkeypatch.setattr(cli, "run", capture)
    assert main(["analyze", *argv, "--output-dir", str(tmp_path)]) == 0
    return built[0]


def test_analyze_defaults_are_the_configs(monkeypatch, tmp_path):
    cfg = _analyze_config(monkeypatch, tmp_path, "--input", "corpus.log")
    assert cfg == pipeline.PipelineConfig(output_dir=tmp_path, input_path=Path("corpus.log"))


def test_every_analyze_setting_reaches_its_field(monkeypatch, tmp_path):
    # one flag per field but the four analyze builds itself; each value
    # differs from the field's default
    settings = {
        "--malformed-threshold": ("0.25", 0.25),
        "--collapse-duplicates": (None, True),
        "--window-start": ("2001-02-03", dt.date(2001, 2, 3)),
        "--window-days": ("7", 7),
        "--tz-offset-seconds": ("-3600", -3600),
        "--direction": ("total", "total"),
        "--k": ("4", 4),
        "--k-values": ("2,4,8", (2, 4, 8)),
        "--cv-threshold": ("0.5", 0.5),
        "--fit-target": ("pdf", "pdf"),
        "--fit-xmin": ("3", 3),
        "--robustness-steps": ("0,0.5", (0.0, 0.5)),
        "--seed": ("9", 9),
    }
    expected = {flag[2:].replace("-", "_"): value for flag, (_, value) in settings.items()}
    built_by_analyze = {"output_dir", "input_path", "log_format"}
    fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    assert set(expected) == fields - built_by_analyze
    argv = [part for flag, (text, _) in settings.items() for part in (flag, text) if part]
    cfg = _analyze_config(monkeypatch, tmp_path, "--input", "corpus.log", *argv)
    for name, value in expected.items():
        assert getattr(cfg, name) == value != getattr(pipeline.PipelineConfig, name), name
    assert cfg.input_path == Path("corpus.log")


def test_every_log_format_flag_reaches_its_field(monkeypatch, tmp_path):
    # field: (flag, text, value); each value differs from the field's default
    settings = {
        "columns": (
            "--columns", "timestamp,sender,recipient", ("timestamp", "sender", "recipient")
        ),
        "delimiter": ("--delimiter", ";", ";"),
        "has_header": ("--header", None, True),
    }
    assert set(settings) == {f.name for f in dataclasses.fields(LogFormatConfig)}
    argv = [part for flag, text, _ in settings.values() for part in (flag, text) if part]
    cfg = _analyze_config(monkeypatch, tmp_path, "--input", "corpus.log", *argv).log_format
    for name, (_, _, value) in settings.items():
        assert getattr(cfg, name) == value != getattr(LogFormatConfig, name), name


NO_MESSAGE_LOGS = {
    # name: (log, flags, the parse's counts)
    "empty": (b"", (), (0, 0, 0, 0, 0)),
    "blank-lines": (b"\n\n\n", (), (0, 0, 0, 0, 0)),
    "header-only": (b"sender,recipient,timestamp\n", ("--header",), (0, 0, 0, 0, 0)),
    "self-loops": (b"a,a,100\nb,b,200\n", (), (2, 0, 2, 0, 0)),
    "malformed": (b"a,b\nnot a row\n", ("--malformed-threshold", "1"), (2, 0, 0, 2, 0)),
}


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every entry under ``root``: a file's bytes, None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


@pytest.mark.parametrize("case", NO_MESSAGE_LOGS)
@pytest.mark.parametrize(
    "verb, flags",
    [("analyze", ("--robustness-steps", "0.0")), ("robustness", ("--steps", "0.0"))],
    ids=["analyze", "robustness"],
)
def test_a_log_with_no_message_is_insufficient_data(tmp_path, capsys, verb, flags, case):
    # every claim is read off the messages: a log that leaves none stops the
    # run before any file is written, and a previous run's outputs stay
    data, format_flags, counts = NO_MESSAGE_LOGS[case]
    log = tmp_path / "none.log"
    log.write_bytes(data)
    fresh, previous = tmp_path / "fresh", tmp_path / "previous"
    hub = write_hub_log(tmp_path / "hub.log", nodes=10, days=3, hubs=1)
    assert main([verb, "--input", str(hub), *flags, "--output-dir", str(previous)]) == 0
    before = _tree(previous)
    names = ("rows_read", "accepted", "self_loops_dropped", "malformed", "duplicates_collapsed")
    named = ", ".join(f"{name} {n}" for name, n in zip(names, counts))
    for out in (fresh, previous):
        capsys.readouterr()
        argv = [verb, "--input", str(log), *flags, *format_flags, "--output-dir", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == f"insufficient data: message log is empty ({named})\n"
    assert _tree(fresh) == {}
    assert _tree(previous) == before


def test_empty_window_exit_code(tmp_path, capsys):
    # an explicit window over a log with no message is insufficient data too:
    # the run exits 4 before it writes any file
    empty = tmp_path / "empty.log"
    empty.write_text("")
    rc = main(
        [
            "analyze",
            "--input", str(empty),
            "--window-start", "2001-05-01",
            "--window-days", "2",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 4
    assert "message log is empty" in capsys.readouterr().err
    assert _tree(tmp_path / "out") == {}


def test_config_error_exit_code(tmp_path):
    # each bad setting is refused before the output directory is made and
    # before the log is opened: a missing one would exit 3
    missing = str(tmp_path / "missing.log")
    out = tmp_path / "out"
    for flag, value in (
        ("--k", "0"),
        ("--tz-offset-seconds", "9223372036854775000"),
        ("--k-values", ""),
        ("--window-days", "36526"),
        ("--k-values", "5,5,10"),
        ("--cv-threshold", "nan"),
        ("--cv-threshold", "inf"),
        ("--cv-threshold", "-1"),
        ("--direction", "sideways"),
        ("--fit-target", "log"),
        ("--columns", "sender,recipient"),
        ("--columns", "sender,,recipient,timestamp"),
        ("--delimiter", "\r"),
        ("--delimiter", "\n"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ):
        rc = main(["analyze", "--input", missing, flag, value, "--output-dir", str(out)])
        assert rc == 2, flag
        assert not out.exists(), flag
    # and so are bad removal fractions and strategies
    for steps in ("0.5,0.2", "1.0"):
        for argv in (
            ["analyze", "--input", missing, "--robustness-steps", steps],
            ["robustness", "--input", missing, "--steps", steps],
        ):
            assert main([*argv, "--output-dir", str(tmp_path)]) == 2, argv
    for source in ("--input", "--edges"):
        argv = ["robustness", source, missing, "--strategies", "random,bogus"]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 2, source


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("verb", ["analyze", "robustness"])
def test_seed_outside_the_range_is_refused_before_any_work(tmp_path, capsys, verb, seed):
    # a missing input would exit 3 if it were opened; the seed is refused
    # first, by name, and no output directory is made
    out = tmp_path / "out"
    argv = [verb, "--input", str(tmp_path / "missing.log"), "--seed", seed]
    assert main([*argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: seed must be an integer in [0, 2**64), not {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "-1", "1.5"])
@pytest.mark.parametrize("verb", ["ingest", "analyze", "robustness"])
def test_malformed_threshold_outside_unit_interval(tmp_path, capsys, verb, threshold):
    # one bad row of two: NaN must not switch the malformed gate off
    log = tmp_path / "m.log"
    log.write_text("a,b,1000000000\nnot a row\n")
    args = [verb, "--input", str(log), "--malformed-threshold", threshold]
    if verb != "ingest":
        args += ["--output-dir", str(tmp_path / "out")]
    assert main(args) == 2
    assert "malformed_threshold must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--columns", "x"), ("--delimiter", "ab")])
def test_robustness_on_edges_checks_the_log_format_flags(tmp_path, flag, value):
    # an edge list reads no log format, but a bad flag is still refused
    # before the output directory is made, as for a log
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n0 2\n")
    out = tmp_path / "out"
    argv = ["robustness", "--edges", str(edges), flag, value, "--output-dir", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_missing_output_dir_is_config_error(tmp_path, monkeypatch, capsys):
    # argparse refuses it, before any directory is made
    log = write_hub_log(tmp_path / "hub.log", nodes=10, days=2, hubs=1)
    monkeypatch.chdir(tmp_path)
    for verb in ("analyze", "robustness"):
        with pytest.raises(SystemExit) as exited:
            main([verb, "--input", str(log)])
        assert exited.value.code == 2
        assert "--output-dir" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["hub.log"]


def test_ingest_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("not,even\nclose\n")
    rc = main(["ingest", "--input", str(bad)])
    assert rc == 3
    rc = main(["ingest", "--input", str(tmp_path / "missing.log")])
    assert rc == 3
    # a bad edge-list line is an ingest error naming the line, whatever is wrong
    edges = tmp_path / "bad.edges"
    for line in (
        b"0 1 2",
        b"1 x",
        b"2 2",
        b"1 99999999999999999999",
        b"1_000 2",
        "\u0663 2".encode(),
        b"\xff 2",  # not UTF-8
    ):
        edges.write_bytes(b"0 1\n" + line + b"\n")
        capsys.readouterr()
        rc = main(["robustness", "--edges", str(edges), "--output-dir", str(tmp_path)])
        assert rc == 3, line
        assert "line 2" in capsys.readouterr().err, line


def test_undated_timestamp_is_malformed_row(tmp_path):
    # a millisecond stamp lands past 9999-12-31: a malformed row, not a crash
    log = tmp_path / "ms.log"
    log.write_text("a,b,1000562340\nb,c,1000562341\nc,a,1000562340000\n")
    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--input", str(log),
            "--malformed-threshold", "0.5",
            "--robustness-steps", "0.0",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["corpus"]["source"]["ingest"]["malformed_lines"][0][0] == 3
    assert report["corpus"]["source"]["ingest"]["malformed"] == 1


def test_calendar_spanning_log_is_window_error(tmp_path, capsys):
    # 0001-01-01 and 9999-12-31: a 2.9M-day window is refused before it is built
    log = tmp_path / "span.log"
    log.write_text("a,b,-62135596800\nb,a,253402300799\n")
    rc = main(["analyze", "--input", str(log), "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "--window-days" in capsys.readouterr().err


def test_ingest_writes_normalized_log(tmp_path, capsys):
    raw = tmp_path / "raw.log"
    raw.write_bytes(b"b,a,200\na,b,100\nx,x,50\n")
    out = tmp_path / "normalized.log"
    rc = main(["ingest", "--input", str(raw), "--output", str(out)])
    assert rc == 0
    assert out.read_text() == "a,b,100\nb,a,200\n"
    summary = json.loads(capsys.readouterr().out)
    assert summary["self_loops_dropped"] == 1


def test_robustness_on_edge_list(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n0 2\n0 3\n0 4\n")
    out_dir = tmp_path / "rob"
    rc = main(
        [
            "robustness",
            "--edges", str(edges),
            "--steps", "0.0,0.2",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    targeted = (out_dir / "robustness_targeted.dat").read_text().strip().split("\n")
    assert len(targeted) == 3
    # removing the hub at 20% leaves isolated leaves: giant fraction 1/5
    assert targeted[2].split()[1] == "0.2"


def test_robustness_rerun_replaces_both_curves(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n0 2\n0 3\n0 4\n1 2\n")
    out_dir = tmp_path / "rob"
    (out_dir / "keep").mkdir(parents=True)
    args = ["robustness", "--edges", str(edges), "--output-dir", str(out_dir)]
    assert main([*args, "--steps", "0.0"]) == 0
    assert (out_dir / "robustness_targeted.dat").exists()
    assert main([*args, "--strategies", "random", "--steps", "0.0,0.5"]) == 0
    # the first run's targeted curve is gone, not left beside the new random one
    assert not (out_dir / "robustness_targeted.dat").exists()
    assert len((out_dir / "robustness_random.dat").read_text().splitlines()) == 3
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "keep", "robustness_random.dat"
    ]


@pytest.mark.parametrize("source", ["--input", "--edges"])
def test_robustness_output_dir_naming_a_file_fails_before_reading(
    tmp_path, monkeypatch, source
):
    def never(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_messages", never)
    monkeypatch.setattr(cli, "read_edge_list", never)
    target = tmp_path / "taken"
    target.write_bytes(b"0 1\n")
    assert main(["robustness", source, str(target), "--output-dir", str(target)]) == 3
    assert target.read_bytes() == b"0 1\n"


def test_robustness_without_path_length(tmp_path):
    edges = tmp_path / "ba.edges"
    assert main(["generate", "ba", "--n", "200", "--m", "2", "--output", str(edges)]) == 0
    args = ["robustness", "--edges", str(edges), "--output-dir"]
    assert main([*args, str(tmp_path / "full")]) == 0
    assert main([*args, str(tmp_path / "bare"), "--no-path-length"]) == 0
    for kind in ("random", "targeted"):
        name = f"robustness_{kind}.dat"
        full, bare = (
            [row.split() for row in (tmp_path / run / name).read_text().splitlines()[1:]]
            for run in ("full", "bare")
        )
        assert [row[:2] for row in bare] == [row[:2] for row in full]
        assert {row[2] for row in bare} == {"nan"} != {row[2] for row in full}


def test_repeated_strategy_runs_once(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n")
    kinds = []
    curves = robustness.robustness_curves

    def counted(graph, strategies, steps, **options):
        strategies = list(strategies)
        kinds.extend(s.kind for s in strategies)
        return curves(graph, strategies, steps, **options)

    monkeypatch.setattr(robustness, "robustness_curves", counted)
    args = ["robustness", "--edges", str(edges), "--strategies", "random,random"]
    assert main([*args, "--output-dir", str(tmp_path / "out")]) == 0
    assert kinds == ["random"]
    assert capsys.readouterr().out.count("wrote") == 1


def test_strategies_skip_empty_entries(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n")
    args = ["robustness", "--edges", str(edges), "--steps", "0.0,0.5"]
    assert main([*args, "--strategies", "random", "--output-dir", str(tmp_path / "a")]) == 0
    assert main([*args, "--strategies", "random,", "--output-dir", str(tmp_path / "b")]) == 0
    assert main([*args, "--strategies", ", random ,,", "--output-dir", str(tmp_path / "c")]) == 0
    expected = (tmp_path / "a" / "robustness_random.dat").read_bytes()
    for run in ("b", "c"):
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == ["robustness_random.dat"]
        assert (tmp_path / run / "robustness_random.dat").read_bytes() == expected


@pytest.mark.parametrize(
    "marked",
    [
        b"\xef\xbb\xbf# ids\r\n0\t1\r\n\r\n1 2\r\n2\t0\r\n2 3\r\n",
        b"\xef\xbb\xbf0 1\r\n# ids\r\n1\t2\r\n2 0\r\n\t2 3 \r\n",
    ],
    ids=["bom-before-comment", "bom-before-pair"],
)
def test_edge_list_with_bom_crlf_comments_and_tabs_reads_as_clean(tmp_path, marked):
    # one byte-order mark at the start is skipped, as in a log
    (tmp_path / "clean.edges").write_bytes(b"0 1\n1 2\n2 0\n2 3\n")
    (tmp_path / "marked.edges").write_bytes(marked)
    for name in ("clean", "marked"):
        argv = ["robustness", "--edges", str(tmp_path / f"{name}.edges"), "--steps", "0.0,0.5"]
        assert main([*argv, "--output-dir", str(tmp_path / name)]) == 0
    for curve in pipeline.ROBUSTNESS_FILES:
        clean = (tmp_path / "clean" / curve).read_bytes()
        assert (tmp_path / "marked" / curve).read_bytes() == clean


@pytest.mark.parametrize("strategies", ["", ",", " , "])
def test_no_strategy_left_is_config_error_before_reading(
    tmp_path, monkeypatch, capsys, strategies
):
    def never(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_edge_list", never)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "robustness_random.dat").write_text("old\n")
    argv = ["robustness", "--edges", "g.edges", "--strategies", strategies]
    assert main([*argv, "--output-dir", str(out_dir)]) == 2
    assert "no strategy" in capsys.readouterr().err
    # the old curve file is neither swapped out nor deleted
    assert [p.name for p in out_dir.iterdir()] == ["robustness_random.dat"]
    assert (out_dir / "robustness_random.dat").read_text() == "old\n"


def test_robustness_from_message_log(tmp_path):
    log = tmp_path / "m.log"
    log.write_bytes(brute.log_bytes())
    out_dir = tmp_path / "rob"
    rc = main(
        [
            "robustness",
            "--input", str(log),
            "--strategies", "random",
            "--steps", "0.0",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "robustness_random.dat").exists()
    # with the default strategies and steps, the verb writes the curves the
    # pipeline writes for the same log
    hub = tmp_path / "hub.log"
    assert main([*HUB_ARGS, "--output", str(hub)]) == 0
    verb, pipeline = tmp_path / "verb", tmp_path / "pipeline"
    assert main(["robustness", "--input", str(hub), "--output-dir", str(verb)]) == 0
    assert main(["analyze", "--input", str(hub), "--output-dir", str(pipeline)]) == 0
    for name in ("robustness_random.dat", "robustness_targeted.dat"):
        assert (verb / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_robustness_on_a_log_of_blank_lines(tmp_path, capsys):
    log = tmp_path / "blank.log"
    log.write_text("\n\n\n")
    argv = ["robustness", "--input", str(log), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 4
    assert "message log is empty" in capsys.readouterr().err


def test_report_summarizer(tmp_path, capsys):
    log = write_hub_log(tmp_path / "hub.log", nodes=30, days=6, hubs=2, hub_rate=8.0)
    out_dir = tmp_path / "out"
    main(
        [
            "analyze",
            "--input", str(log),
            "--k", "2",
            "--k-values", "2",
            "--robustness-steps", "0.0,0.2",
            "--output-dir", str(out_dir),
        ]
    )
    capsys.readouterr()
    rc = main(["report", str(out_dir / "report.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median consecutive-day r" in out
    assert "top-2 degree share" in out


def test_report_on_json_that_is_not_an_object(tmp_path, capsys):
    not_json = tmp_path / "not.json"
    not_json.write_text("not json\n")
    listed = tmp_path / "list.json"
    listed.write_text("[1,2]\n")
    rc_not_json = main(["report", str(not_json)])
    capsys.readouterr()
    rc = main(["report", str(listed)])
    err = capsys.readouterr().err
    assert rc == rc_not_json == 2
    assert err.count("\n") == 1 and "not a JSON object" in err


@pytest.mark.parametrize(
    "content",
    [b"not json\n", b"\xff{}\n", '{"window": {}}'.encode("utf-16")],
    ids=["not-json", "not-utf8", "utf16-json"],
)
def test_report_on_a_file_that_is_not_a_utf8_json_report(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {path}: not a UTF-8 JSON report\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"corpus": 5}',
        '{"robustness": {"random": []}}',
        '{"robustness": {"random": {"points": [{}]}}}',
        '{"aggregate_fit": {"ols": {"gamma": 2}}}',
        '{"concentration": {"share": "x"}}',
    ],
)
def test_report_on_a_section_of_the_wrong_shape(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text + "\n")
    rc = main(["report", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"configuration error: {path}: ")


def test_generate_ba_and_er_edge_lists(tmp_path):
    ba_path = tmp_path / "ba.edges"
    rc = main(["generate", "ba", "--n", "20", "--m", "2", "--output", str(ba_path)])
    assert rc == 0
    lines = ba_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 18 * 2
    er_path = tmp_path / "graphs" / "er.edges"  # a missing directory is made
    rc = main(["generate", "er", "--n", "10", "--p", "1.0", "--output", str(er_path)])
    assert rc == 0
    assert len(er_path.read_text().strip().split("\n")) == 45


def test_empty_edge_list_is_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    assert main(["generate", "er", "--n", "1", "--p", "0.5", "--output", str(path)]) == 0
    assert "wrote 0 edges" in capsys.readouterr().out
    assert path.read_bytes() == b""
    rc = main(["robustness", "--edges", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    assert "graph has no nodes" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # importing scipy.sparse.csgraph costs about 0.45 s, scipy.special 0.34 s
    # and scipy.optimize 0.59 s, against ~1 s for a whole 3,000-node
    # robustness run; code that needs scipy imports it inside the function
    # that uses it
    src = str(Path(commnet.__file__).resolve().parents[1])
    code = (
        "import sys, commnet.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_package_import_loads_no_module_until_a_name_is_used():
    src = str(Path(commnet.__file__).resolve().parents[1])
    code = (
        "import sys, commnet; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.startswith(('commnet', 'numpy'))); "
        "print(loaded()); commnet.top_k; print(loaded()[:3])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.splitlines() == [
        "['commnet']",
        "['commnet', 'commnet.centrality', 'commnet.errors']",
    ]


def test_cli_import_leaves_one_thread():
    # numpy's OpenBLAS starts a worker pool on import whose threads spin while
    # the package imports, and no code here calls BLAS, so the package sets
    # the pool to one thread unless the user has chosen a size
    src = str(Path(commnet.__file__).resolve().parents[1])
    code = (
        "import os, commnet.cli; "
        "task = '/proc/self/task'; "
        "print(len(os.listdir(task)) if os.path.isdir(task) else None, "
        "os.environ['OPENBLAS_NUM_THREADS'])"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for chosen, expected in ((None, "1"), ("2", "2")):
        if chosen is not None:
            env["OPENBLAS_NUM_THREADS"] = chosen
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**env, "PYTHONPATH": src},
        )
        threads, value = done.stdout.split()
        assert value == expected
        if chosen is None and threads != "None":
            assert threads == "1"


# the modules only analyze runs: no other verb may load them
ANALYSIS_MODULES = (
    "commnet.centrality", "commnet.dynamics", "commnet.powerlaw", "statistics"
)
# run the CLI in a fresh process; print, last, the analysis modules loaded
# when parse_edge_log was first called (null if never) and after main
_MODULES_RUN = """
import json, sys
from commnet import cli, pipeline
loaded = lambda: [m for m in {modules!r} if m in sys.modules]
at_parse, parse = [], pipeline.parse_edge_log
def spy(*args, **kwargs):
    at_parse.append(loaded())
    return parse(*args, **kwargs)
pipeline.parse_edge_log = spy
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, at_parse[0] if at_parse else None, loaded()]))
"""


def _modules_loaded(
    *args: str, modules: tuple[str, ...] = ANALYSIS_MODULES
) -> tuple[list[str] | None, list[str]]:
    src = str(Path(commnet.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_RUN.format(modules=modules), *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    rc, at_parse, after = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0, done.stderr
    return at_parse, after


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    log, edges = root / "hub.log", root / "ba.edges"
    assert main([*HUB_ARGS, "--output", str(log)]) == 0
    assert main(["generate", "ba", "--n", "300", "--m", "3", "--output", str(edges)]) == 0
    return log, edges


@pytest.mark.parametrize(
    "verb",
    [
        ("robustness", "--edges", "{edges}", "--output-dir", "{out}"),
        ("robustness", "--input", "{log}", "--output-dir", "{out}"),
        ("ingest", "--input", "{log}", "--output", "{out}/copy.log"),
        ("generate", "ba", "--n", "50", "--m", "2", "--output", "{out}/ba.edges"),
    ],
    ids=["robustness-edges", "robustness-input", "ingest", "generate-ba"],
)
def test_verb_leaves_the_analysis_modules_unloaded(verb, small_inputs, tmp_path):
    log, edges = small_inputs
    args = [a.format(log=log, edges=edges, out=tmp_path) for a in verb]
    assert _modules_loaded(*args)[1] == []


# numpy's random module, which imports secrets, hashlib and OpenSSL: about
# 5.5 MB and 10 ms of a process. Only generate draws from numpy's Generator
RANDOM_MODULES = ("numpy.random", "secrets")


@pytest.mark.parametrize(
    "verb",
    [
        ("robustness", "--edges", "{edges}", "--output-dir", "{out}"),
        ("robustness", "--input", "{log}", "--output-dir", "{out}"),
        ("analyze", "--input", "{log}", "--output-dir", "{out}"),
    ],
    ids=["robustness-edges", "robustness-input", "analyze"],
)
def test_verb_leaves_numpy_random_unloaded(verb, small_inputs, tmp_path):
    log, edges = small_inputs
    args = [a.format(log=log, edges=edges, out=tmp_path) for a in verb]
    assert _modules_loaded(*args, modules=RANDOM_MODULES)[1] == []


def test_analyze_loads_the_analysis_modules_before_the_parse(small_inputs, tmp_path):
    # objects made after the parse would lie above its memory peak
    log, _ = small_inputs
    at_parse, after = _modules_loaded(
        "analyze", "--input", str(log), "--output-dir", str(tmp_path)
    )
    assert at_parse == after == list(ANALYSIS_MODULES)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the CI-sized hub corpus
HUB_ARGS = (
    "generate", "hub-corpus", "--nodes", "40", "--days", "12", "--hubs", "4",
    "--hub-rate", "20", "--background-rate", "4",
)
ISO_FORMAT = ("--columns", "timestamp,recipient,sender", "--delimiter", "\t", "--header")
# SHA-256 of the files the per-row writer wrote, recorded before the
# vectorized writer; 1969-12-25 puts the stamps on both sides of the epoch.
# er.edges was recorded before the pair unranking became exact integers
PINNED_GENERATED = {
    "hub.log": "2af971a24afe40c92f12fc1c9fb6c95862b641f62de77b562f690806e33f3e34",
    "hub1969.log": "8b5d9f62dd3e7095e20e555e1973cabe38d0ed1a1be6504c389424690edaa63f",
    "ba.edges": "a90408730a94df977659126f0d22241d4dcda1e40872638da2fbf9feb99bdebf",
    "er.edges": "0ace4643f43bd16c93f9c26b0eeebbffe59a66a284fb96d8a0d718a3bba6bb69",
    "iso.in": "a6ddbe1e9cec7c39f85914d96da6a41f775a361bfa75839697657686df5c159a",
    "iso.out": "14e224b09dd8cfae7472eb9a3434f107fec3691285b952adcc98a8a2167bc47b",
}


def test_generated_bytes_pinned(tmp_path, capsys):
    hub, hub1969 = tmp_path / "hub.log", tmp_path / "hub1969.log"
    assert main([*HUB_ARGS, "--output", str(hub)]) == 0
    args = ["--start-date", "1969-12-25", "--output", str(hub1969)]
    assert main([*HUB_ARGS, *args]) == 0
    args = ["--n", "300", "--m", "3", "--output", str(tmp_path / "ba.edges")]
    assert main(["generate", "ba", *args]) == 0
    args = ["--n", "300", "--p", "0.02", "--output", str(tmp_path / "er.edges")]
    assert main(["generate", "er", *args]) == 0
    # ingest --output sorts: feed it the 1969 corpus in the iso format with
    # its rows reversed
    cfg = LogFormatConfig(("timestamp", "recipient", "sender"), "\t", True)
    stream, _ = parse_edge_log(hub1969.read_bytes())
    sink = io.BytesIO()
    ref_write.write_edge_log(stream, sink, cfg, iso=True)
    header, *rows = sink.getvalue().splitlines(keepends=True)
    (tmp_path / "iso.in").write_bytes(header + b"".join(rows[::-1]))
    normalized = tmp_path / "normalized.log"
    args = ["--input", str(tmp_path / "iso.in"), "--output", str(normalized)]
    assert main(["ingest", *args, *ISO_FORMAT]) == 0
    capsys.readouterr()
    # it writes unix seconds; its rows in the iso format are the bytes that
    # ingest wrote when it still wrote that format
    stream, _ = parse_edge_log(normalized.read_bytes(), cfg)
    unix, iso = io.BytesIO(), io.BytesIO()
    ref_write.write_edge_log(stream, unix, cfg)
    ref_write.write_edge_log(stream, iso, cfg, iso=True)
    assert normalized.read_bytes() == unix.getvalue()
    (tmp_path / "iso.out").write_bytes(iso.getvalue())
    assert {name: _sha256(tmp_path / name) for name in PINNED_GENERATED} == (
        PINNED_GENERATED
    )


def _fail_partway(stream, sink, cfg=None):
    sink.write(b"0,1,2\n")
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("verb", ["generate", "ingest"])
def test_failed_write_leaves_the_target(tmp_path, monkeypatch, capsys, verb):
    log, target = tmp_path / "hub.log", tmp_path / "out.log"
    assert main([*HUB_ARGS, "--output", str(log)]) == 0
    target.write_bytes(b"previous\n")
    monkeypatch.setattr(cli, "write_edge_log", _fail_partway)
    if verb == "generate":
        args = [*HUB_ARGS, "--output", str(target)]
    else:
        args = ["ingest", "--input", str(log), "--output", str(target)]
    capsys.readouterr()
    assert main(args) == 3
    assert capsys.readouterr().err == "file error: [Errno 28] No space left on device\n"
    assert target.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hub.log", "out.log"]
    # and a write that completes replaces it
    monkeypatch.undo()
    assert main(args) == 0
    assert target.read_bytes().startswith(log.read_bytes()[:6])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "LOG", "--output-dir", "FILE"],
        ["robustness", "--edges", "EDGES", "--output-dir", "FILE"],
        ["ingest", "--input", "DIR"],
        [*HUB_ARGS, "--output", "DIR"],
        ["report", "DIR"],
    ],
)
def test_os_error_on_a_named_path_is_one_line(tmp_path, capsys, argv):
    (tmp_path / "FILE").write_text("kept\n")
    (tmp_path / "EDGES").write_text("0 1\n")
    (tmp_path / "LOG").write_text("a,b,1\n")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "DIR" / "kept").write_text("kept\n")
    capsys.readouterr()
    named = ("FILE", "EDGES", "LOG", "DIR")
    assert main([str(tmp_path / a) if a in named else a for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert (tmp_path / "FILE").read_text() == "kept\n"
    assert (tmp_path / "DIR" / "kept").read_text() == "kept\n"
    assert not list(tmp_path.rglob(".commnet-*"))


def test_closed_stdout_ends_quietly(tmp_path):
    # `commnet ingest ... | head -3`, with the reader gone before any write
    log = tmp_path / "hub.log"
    log.write_bytes(b"a,b,1\nb,c,2\n")
    src = str(Path(commnet.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "commnet.cli", "ingest", "--input", str(log)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.stderr == ""
    assert done.returncode == cli.EXIT_BROKEN_PIPE == 1


def test_adjacency_built_once_per_run(tmp_path, monkeypatch, capsys):
    log, edges = tmp_path / "hub.log", tmp_path / "ba.edges"
    assert main([*HUB_ARGS, "--output", str(log)]) == 0
    args = ["--n", "300", "--m", "3", "--output", str(edges)]
    assert main(["generate", "ba", *args]) == 0
    builds = []
    build = temporal._symmetric_csr

    def counted(n, u, v):
        builds.append(n)
        return build(n, u, v)

    monkeypatch.setattr(temporal, "_symmetric_csr", counted)
    out = str(tmp_path / "out")
    for args in (
        ["analyze", "--input", str(log)],
        ["robustness", "--input", str(log)],
        ["robustness", "--edges", str(edges)],
    ):
        builds.clear()
        assert main([*args, "--output-dir", out]) == 0
        assert len(builds) == 1, args
    capsys.readouterr()
