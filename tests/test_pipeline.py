import hashlib
import json
import math
from pathlib import Path

import pytest

import commnet as cn
from commnet.errors import ConfigError
from commnet.pipeline import (
    OWNED_NAMES,
    RUN_INFO_FILENAME,
    PipelineConfig,
    emit_plot_data,
    format_columns,
    run,
)

from . import brute


def hub_config(out_dir: Path, **overrides) -> PipelineConfig:
    params = dict(
        output_dir=out_dir,
        hub_params=cn.HubCorpusParams(
            nodes=60, days=20, hubs=5, hub_rate=20.0, background_rate=1.0, seed=0
        ),
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
    assert report.corpus["source"]["kind"] == "synthetic-hub-corpus"
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

    written = json.loads((tmp_path / "report.json").read_text())
    assert written["schema_version"] == 1
    assert written["consistency"]["count"] == 5


def test_plot_files_shapes(tmp_path):
    report = run(hub_config(tmp_path))
    corr_rows = read_data_rows(tmp_path / "correlation_series.dat")
    assert len(corr_rows) == report.window["days"] - 1
    day_files = sorted((tmp_path / "day_distributions").glob("day_*.dat"))
    assert len(day_files) == report.window["non_empty_days"]
    hub_files = sorted((tmp_path / "hub_series").glob("node_*.dat"))
    assert len(hub_files) == 5
    for f in hub_files:
        assert len(read_data_rows(f)) == report.window["days"]
    fit_rows = read_data_rows(tmp_path / "per_day_fits.dat")
    assert len(fit_rows) == report.window["non_empty_days"]
    for kind in ("random", "targeted"):
        rows = read_data_rows(tmp_path / f"robustness_{kind}.dat")
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
    # plot files exist as header-only
    corr = (tmp_path / "out" / "correlation_series.dat").read_text()
    assert corr.strip() == "day_a day_b r"


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
    assert report.corpus["nodes"] == 5
    assert report.labels == {str(i): name for i, name in enumerate(brute.NAMES)}


def test_determinism_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(hub_config(out_a))
    run(hub_config(out_b))
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
    with pytest.raises(ConfigError):
        PipelineConfig(output_dir=tmp_path).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, input_path=Path("x")).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, k=0).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, k_values=(5, 3)).validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, fit_target="cdf").validate()
    with pytest.raises(ConfigError):
        hub_config(tmp_path, window_days=0).validate()


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
        run(hub_config(out))
    leftovers = [p for p in out.rglob("*") if p.is_file()]
    assert leftovers == []


def test_format_columns_empty_section():
    text = format_columns(("a", "b"), [])
    assert text == "a b\n"
    text2 = format_columns(("a",), [(None,), (1.5,)])
    assert text2 == "a\nnan\n1.5\n"


def test_rerun_replaces_previous_outputs(tmp_path):
    out = tmp_path / "out"
    run(hub_config(out))
    (out / "notes.txt").write_text("kept")
    (out / "plots").mkdir()
    (out / "plots" / "mine.dat").write_text("kept")
    small = cn.HubCorpusParams(
        nodes=30, days=5, hubs=3, hub_rate=20.0, background_rate=1.0, seed=7
    )
    report = run(hub_config(out, hub_params=small, k=3))
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


# SHA-256 of every deterministic output of the acceptance-criterion-8 config
PINNED_DIGESTS = {
    "correlation_series.dat": "d937acd9d5dde1758e0bca34d2b573c12b1c23fd8057863d2481a7d0f09e4d48",
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
    "hub_series/node_0.dat": "17354ef99244fc63090dd3ab4f0d62b79da604e246630fc8ccf2be3d02e56073",
    "hub_series/node_1.dat": "4ca132b40970eb452f37b41dc84fb2fec155df159a3eb85245f03e8b02e3da64",
    "hub_series/node_2.dat": "995c6f3780f835f5bc3fd08b96027b9e265bf6401c928bca9affdbb257fcdc70",
    "hub_series/node_3.dat": "f1b1e18630fba89c1e3044400568f41e7dfa45792de850975eb765d842cfa2d0",
    "hub_series/node_4.dat": "9f4002a2b567161ed7f735d94f1e8206fc70d1dd220deb4033e1bb1cdd9f00c7",
    "hub_series/node_5.dat": "a02fe79cf1c75930a79b997b157aee66962ab3938de2cddad0f4bf640fbda611",
    "overlap_vs_k.dat": "d90367ca259a509695778e8f7fbb26d6ec1e1e022fe2a07b1c2fac847eb6a106",
    "per_day_fits.dat": "c0c86646c8c3c61c86b76251298215719e440827aff1b7864923e4d57ea429a2",
    "report.json": "b8ba2e5d6e90eab6d2c34b7c98e1c2c9ad6a49301f676981f839dc53e28f1594",
    "robustness_random.dat": "4f9dd0bfebcfcdc57394116cc1a50becc4173ea0dfa1e2540bf7534a29baee7b",
    "robustness_targeted.dat": "180fa0261fbd1720bfcd50fd61b1b683abf288b3367d53d5e2750c003223915a",
    "top_frequency.dat": "43054bab181d13ea9e493ce3d6630c842e120260007c8c16691993e4003ec82b",
}


def test_output_bytes_pinned(tmp_path):
    cfg = PipelineConfig(
        output_dir=tmp_path,
        hub_params=cn.HubCorpusParams(
            nodes=80, days=25, hubs=6, hub_rate=15.0, background_rate=1.0, seed=7
        ),
        k=6,
        k_values=(3, 6, 12),
        robustness_steps=(0.0, 0.1, 0.2),
        seed=7,
    )
    run(cfg)
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name != RUN_INFO_FILENAME
    }
    assert digests == PINNED_DIGESTS
