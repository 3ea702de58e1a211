import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commnet
from commnet import cli, robustness, temporal
from commnet.cli import main
from commnet.ingest import LogFormatConfig, parse_edge_log

from . import brute, ref_write


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
    assert not report["sections_empty"]


def test_analyze_synthetic_mode(tmp_path):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--synthetic-hubs",
            "--nodes", "30",
            "--days", "6",
            "--hubs", "2",
            "--hub-rate", "8",
            "--k", "2",
            "--k-values", "2",
            "--robustness-steps", "0.0",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "report.json").exists()


def test_enron_recipe_presets(tmp_path):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--synthetic-hubs",
            "--nodes", "20",
            "--days", "131",
            "--hubs", "2",
            "--hub-rate", "5",
            "--robustness-steps", "0.0",
            "--enron-recipe",
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["window_days"] == 131
    assert report["config"]["k"] == 10
    assert report["config"]["direction"] == "out"


def test_empty_window_exit_code(tmp_path):
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
    assert (tmp_path / "out" / "report.json").exists()


def test_config_error_exit_code(tmp_path):
    rc = main(
        [
            "analyze",
            "--synthetic-hubs",
            "--k", "0",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    for flag, value in (
        ("--tz-offset-seconds", "9223372036854775000"),
        ("--k-values", ""),
        ("--window-days", "36526"),
        ("--k-values", "5,5,10"),
        ("--cv-threshold", "nan"),
        ("--cv-threshold", "inf"),
        ("--cv-threshold", "-1"),
    ):
        rc = main(
            ["analyze", "--synthetic-hubs", flag, value, "--output-dir", str(tmp_path)]
        )
        assert rc == 2, flag
    # bad removal fractions and strategies are refused before the input is
    # even opened
    missing = str(tmp_path / "missing.log")
    for steps in ("0.5,0.2", "1.0"):
        for argv in (
            ["analyze", "--input", missing, "--robustness-steps", steps],
            ["robustness", "--input", missing, "--steps", steps],
        ):
            assert main([*argv, "--output-dir", str(tmp_path)]) == 2, argv
    for source in ("--input", "--edges"):
        argv = ["robustness", source, missing, "--strategies", "random,bogus"]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 2, source


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


def test_missing_output_dir_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("COMMNET_OUTPUT_DIR", raising=False)
    rc = main(["analyze", "--synthetic-hubs"])
    assert rc == 2


def test_output_dir_env_var(tmp_path, monkeypatch):
    out_dir = tmp_path / "env_out"
    monkeypatch.setenv("COMMNET_OUTPUT_DIR", str(out_dir))
    rc = main(
        [
            "analyze",
            "--synthetic-hubs",
            "--nodes", "10",
            "--days", "4",
            "--hubs", "1",
            "--hub-rate", "4",
            "--k", "1",
            "--k-values", "1",
            "--robustness-steps", "0.0",
        ]
    )
    assert rc == 0
    assert (out_dir / "report.json").exists()


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

    monkeypatch.setattr(cli, "read_log", never)
    monkeypatch.setattr(cli, "_read_edge_list", never)
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


def test_report_summarizer(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(
        [
            "analyze",
            "--synthetic-hubs",
            "--nodes", "30",
            "--days", "6",
            "--hubs", "2",
            "--hub-rate", "8",
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the CI-sized hub corpus
HUB_ARGS = (
    "generate", "hub-corpus", "--nodes", "40", "--days", "12", "--hubs", "4",
    "--hub-rate", "20", "--background-rate", "4",
)
ISO_FORMAT = (
    "--columns", "timestamp,recipient,sender", "--timestamp-format", "iso8601",
    "--delimiter", "\t", "--header",
)
# SHA-256 of the files the per-row writer wrote, recorded before the
# vectorized writer; 1969-12-25 puts the stamps on both sides of the epoch
PINNED_GENERATED = {
    "hub.log": "2af971a24afe40c92f12fc1c9fb6c95862b641f62de77b562f690806e33f3e34",
    "hub1969.log": "8b5d9f62dd3e7095e20e555e1973cabe38d0ed1a1be6504c389424690edaa63f",
    "ba.edges": "a90408730a94df977659126f0d22241d4dcda1e40872638da2fbf9feb99bdebf",
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
    # ingest --output sorts: feed it the 1969 corpus in the iso format with
    # its rows reversed
    cfg = LogFormatConfig(("timestamp", "recipient", "sender"), "iso8601", "\t", True)
    stream, _ = parse_edge_log(hub1969.read_bytes())
    sink = io.BytesIO()
    ref_write.write_edge_log(stream, sink, cfg)
    header, *rows = sink.getvalue().splitlines(keepends=True)
    (tmp_path / "iso.in").write_bytes(header + b"".join(rows[::-1]))
    args = ["--input", str(tmp_path / "iso.in"), "--output", str(tmp_path / "iso.out")]
    assert main(["ingest", *args, *ISO_FORMAT]) == 0
    capsys.readouterr()
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
        ["analyze", "--synthetic-hubs", "--nodes", "10", "--days", "2", "--output-dir", "FILE"],
        ["robustness", "--edges", "EDGES", "--output-dir", "FILE"],
        ["ingest", "--input", "DIR"],
        [*HUB_ARGS, "--output", "DIR"],
        ["report", "DIR"],
    ],
)
def test_os_error_on_a_named_path_is_one_line(tmp_path, capsys, argv):
    (tmp_path / "FILE").write_text("kept\n")
    (tmp_path / "EDGES").write_text("0 1\n")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "DIR" / "kept").write_text("kept\n")
    capsys.readouterr()
    assert main([str(tmp_path / a) if a in ("FILE", "EDGES", "DIR") else a for a in argv]) == 3
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
