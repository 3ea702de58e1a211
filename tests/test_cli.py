import json

import pytest

from commnet.cli import main

from . import brute


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
    ):
        rc = main(
            ["analyze", "--synthetic-hubs", flag, value, "--output-dir", str(tmp_path)]
        )
        assert rc == 2, flag


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
    for line in ("0 1 2", "1 x", "2 2", "1 99999999999999999999"):
        edges.write_text(f"0 1\n{line}\n")
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


def test_generate_ba_and_er_edge_lists(tmp_path):
    ba_path = tmp_path / "ba.edges"
    rc = main(["generate", "ba", "--n", "20", "--m", "2", "--output", str(ba_path)])
    assert rc == 0
    lines = ba_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 18 * 2
    er_path = tmp_path / "er.edges"
    rc = main(["generate", "er", "--n", "10", "--p", "1.0", "--output", str(er_path)])
    assert rc == 0
    assert len(er_path.read_text().strip().split("\n")) == 45
