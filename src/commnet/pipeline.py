"""Batch pipeline: ingest or generate a corpus, run every analysis, emit files.

Given a config the pipeline produces a versioned JSON report plus one columnar
plot-data file per result family (consecutive-day correlation, per-day
and aggregate degree distributions, per-hub degree series, overlap-vs-k,
top-k frequency, per-day fits, robustness curves). Output is deterministic for
a fixed config: any wall-clock information goes to run_info.json, which is the
single file excluded from the byte-for-byte determinism contract.

All files of a run are first written to a staging directory inside the
output directory. Only when every file is written does the run swap them in,
name by name, replacing the previous run's files of the same names (see
OWNED_NAMES) and leaving every other file in the directory alone. A run that
fails midway removes its staging directory and leaves the previous outputs
untouched.
"""
from __future__ import annotations

import datetime as dt
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import centrality, dynamics, powerlaw, robustness as robust
from .errors import (
    CommnetError,
    ConfigError,
    EmptyHistogramError,
    InsufficientSupportError,
)
from .generators import HubCorpusParams, generate_hub_corpus
from .ingest import IngestReport, LogFormatConfig, parse_edge_log
from .temporal import (
    MAX_WINDOW_DAYS,
    SECONDS_PER_DAY,
    TemporalEdgeStream,
    slice_days,
    undirected_projection,
)

REPORT_SCHEMA_VERSION = 1
RUN_INFO_FILENAME = "run_info.json"  # excluded from the determinism contract
ROBUSTNESS_KINDS = ("random", "targeted")
# every name a run writes in its output directory; a rerun replaces them all
OWNED_NAMES = (
    "report.json",
    RUN_INFO_FILENAME,
    "correlation_series.dat",
    "degree_distribution_aggregate.dat",
    "overlap_vs_k.dat",
    "top_frequency.dat",
    "per_day_fits.dat",
    *(f"robustness_{kind}.dat" for kind in ROBUSTNESS_KINDS),
    "day_distributions",
    "hub_series",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs; exactly one of input_path / hub_params is set."""

    output_dir: Path
    input_path: Path | None = None
    log_format: LogFormatConfig = field(default_factory=LogFormatConfig)
    malformed_threshold: float = 0.01
    collapse_duplicates: bool = False
    hub_params: HubCorpusParams | None = None
    window_start: dt.date | None = None
    window_days: int | None = None
    tz_offset_seconds: int = 0
    direction: str = "out"
    k: int = 10
    k_values: tuple[int, ...] = (5, 10, 20)
    cv_threshold: float = 1.0
    fit_target: str = "ccdf"
    fit_xmin: int = 1
    robustness_steps: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
    seed: int = 0

    def validate(self) -> None:
        if (self.input_path is None) == (self.hub_params is None):
            raise ConfigError("exactly one of input_path or hub_params must be set")
        if self.direction not in centrality.VALID_DIRECTIONS:
            raise ConfigError(f"direction must be one of {centrality.VALID_DIRECTIONS}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not self.k_values or list(self.k_values) != sorted(self.k_values):
            raise ConfigError("k_values must be non-empty and ascending")
        if self.k_values[0] < 1:
            raise ConfigError("k_values must be positive")
        if self.fit_target not in ("pdf", "ccdf"):
            raise ConfigError("fit_target must be 'pdf' or 'ccdf'")
        if self.fit_xmin < 1:
            raise ConfigError("fit_xmin must be >= 1")
        if abs(self.tz_offset_seconds) >= SECONDS_PER_DAY:
            raise ConfigError("tz_offset_seconds must lie within one day of 0")
        days = self.window_days
        if days is not None and not 1 <= days <= MAX_WINDOW_DAYS:
            raise ConfigError(f"window_days must lie in 1 .. {MAX_WINDOW_DAYS} (100 years)")
        if not self.robustness_steps:
            raise ConfigError("robustness_steps must be non-empty")


@dataclass
class Report:
    """Assembled analysis results, JSON-serializable via to_dict().

    The analysis sections default to their empty values, so a report built
    from the four header fields alone is the empty-window report.
    """

    config: dict
    window: dict
    corpus: dict
    labels: dict | None
    daily_fits: list[dict] = field(default_factory=list)
    aggregate_fit: dict | None = None
    correlation: dict | None = None
    overlap_vs_k: list[dict] = field(default_factory=list)
    consistency: dict | None = None
    top_frequency: list[dict] = field(default_factory=list)
    concentration: dict | None = None
    stability: list[dict] = field(default_factory=list)
    robustness: dict = field(default_factory=dict)
    sections_empty: bool = True

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **{f.name: getattr(self, f.name) for f in fields(self)},
        }


def _config_echo(cfg: PipelineConfig) -> dict:
    return {
        "input_path": str(cfg.input_path) if cfg.input_path else None,
        "synthetic": cfg.hub_params is not None,
        "window_start": cfg.window_start.isoformat() if cfg.window_start else None,
        "window_days": cfg.window_days,
        "tz_offset_seconds": cfg.tz_offset_seconds,
        "direction": cfg.direction,
        "k": cfg.k,
        "k_values": list(cfg.k_values),
        "cv_threshold": cfg.cv_threshold,
        "fit_target": cfg.fit_target,
        "fit_xmin": cfg.fit_xmin,
        "robustness_steps": list(cfg.robustness_steps),
        "seed": cfg.seed,
    }


def _acquire_stream(
    cfg: PipelineConfig,
) -> tuple[TemporalEdgeStream, dict]:
    if cfg.hub_params is not None:
        stream = generate_hub_corpus(cfg.hub_params)
        source = {
            "kind": "synthetic-hub-corpus",
            "nodes": cfg.hub_params.nodes,
            "days": cfg.hub_params.days,
            "hubs": cfg.hub_params.hubs,
            "hub_rate": cfg.hub_params.hub_rate,
            "background_rate": cfg.hub_params.background_rate,
            "seed": cfg.hub_params.seed,
            "start_date": cfg.hub_params.start_date.isoformat(),
        }
        return stream, source
    assert cfg.input_path is not None
    with open(cfg.input_path, "rb") as fh:
        stream, ingest_report = parse_edge_log(
            fh,
            cfg.log_format,
            malformed_threshold=cfg.malformed_threshold,
            collapse_duplicates=cfg.collapse_duplicates,
        )
    source = {
        "kind": "log",
        "path": str(cfg.input_path),
        "ingest": _ingest_dict(ingest_report),
    }
    return stream, source


def _ingest_dict(report: IngestReport) -> dict:
    return {
        "rows_read": report.rows_read,
        "accepted": report.accepted,
        "self_loops_dropped": report.self_loops_dropped,
        "malformed": report.malformed,
        "malformed_lines": [list(row) for row in report.malformed_rows[:50]],
        "duplicates_collapsed": report.duplicates_collapsed,
    }


def _histogram(dmap: centrality.DegreeMap) -> powerlaw.DegreeHistogram | None:
    try:
        return powerlaw.histogram(dmap)
    except EmptyHistogramError:
        return None


def _fit_dicts(
    dmap: centrality.DegreeMap,
    hist: powerlaw.DegreeHistogram | None,
    target: str,
    xmin: int,
) -> dict:
    """OLS (on the histogram) and MLE fits for one day or the aggregate;
    None where unfittable."""
    out: dict = {"ols": None, "mle": None}
    try:
        if hist is not None:
            fit = powerlaw.fit_ols(hist, target=target, xmin=xmin)
            out["ols"] = {
                "gamma": fit.gamma,
                "r_squared": fit.r_squared,
                "xmin": fit.xmin,
                "target": target,
            }
    except InsufficientSupportError:
        pass
    try:
        fit = powerlaw.fit_mle_sweep([d for d in dmap.values.values() if d >= 1])
        out["mle"] = {
            "gamma": fit.gamma,
            "ks_statistic": fit.ks_statistic,
            "xmin": fit.xmin,
            "n_tail": fit.n_tail,
        }
    except (EmptyHistogramError, InsufficientSupportError):
        pass
    return out


def run(cfg: PipelineConfig) -> Report:
    """Run the full pipeline and write report plus plot data to cfg.output_dir."""
    cfg.validate()
    stream, source = _acquire_stream(cfg)

    window = slice_days(
        stream,
        cfg.window_start,
        num_days=cfg.window_days,
        tz_offset_seconds=cfg.tz_offset_seconds,
    )
    messages = window.message_counts()
    non_empty = np.flatnonzero(messages).tolist()

    window_info = {
        "start": window.date(0).isoformat() if window.length else None,
        "days": window.length,
        "non_empty_days": len(non_empty),
        "tz_offset_seconds": cfg.tz_offset_seconds,
    }
    corpus = {
        "nodes": len(stream.node_registry),
        "messages": len(stream),
        "source": source,
    }
    labels = (
        {str(k): v for k, v in sorted(stream.labels.items())}
        if stream.labels
        else None
    )

    if not non_empty:
        report = Report(_config_echo(cfg), window_info, corpus, labels)
        _emit_all(report, cfg)
        return report

    table = centrality.degree_table(stream, window, cfg.direction)

    # one histogram per non-empty day and one for the aggregate feed both the
    # OLS fits and the distribution files
    day_hists: list[powerlaw.DegreeHistogram | None] = [None] * window.length
    daily_fits = []
    for t in non_empty:
        dmap = table.day_map(t)
        day_hists[t] = _histogram(dmap)
        daily_fits.append(
            {
                "day": t,
                "date": window.date(t).isoformat(),
                "active_nodes": int(np.count_nonzero(table.values[t])),
                "messages": int(messages[t]),
                **_fit_dicts(dmap, day_hists[t], cfg.fit_target, cfg.fit_xmin),
            }
        )

    agg_map = table.aggregate_map()
    agg_hist = _histogram(agg_map)
    aggregate_fit = _fit_dicts(agg_map, agg_hist, cfg.fit_target, cfg.fit_xmin)

    series = dynamics.consecutive_day_correlation(table) \
        if window.length >= 2 else None
    correlation = None
    if series is not None:
        defined = series.defined_values
        correlation = {
            "policy": series.policy,
            "direction": cfg.direction,
            "pairs": [
                {
                    "day_a": p.day_a,
                    "day_b": p.day_b,
                    "r": p.r,
                    "excluded": p.excluded,
                }
                for p in series.pairs
            ],
            "median_r": statistics.median(defined) if defined else None,
        }

    overlap = dynamics.overlap_vs_k(table, cfg.k_values)
    overlap_rows = [{"k": k, "mean_overlap": v} for k, v in overlap.items()]

    consistency_result, freq_table = dynamics.daily_vs_aggregate_consistency(
        table, cfg.k
    )
    consistency = {
        "k": consistency_result.k,
        "count": consistency_result.count,
        "percentage": consistency_result.percentage,
    }
    top_frequency = [{"node": node, "days": days} for node, days in freq_table.items()]

    top = centrality.top_k(agg_map, cfg.k)
    concentration = {
        "k": cfg.k,
        "direction": cfg.direction,
        "share": centrality.degree_share(agg_map, top),
        "top": [{"node": node, "degree": deg} for node, deg in top.entries],
    }

    stability = []
    for node, _ in top.entries:
        ns = dynamics.node_series(table, node)
        stability.append(
            {
                "node": node,
                "mean": ns.mean,
                "cv": ns.cv,
                "class": dynamics.classify_stability(ns, cfg.cv_threshold).value,
            }
        )

    projected = undirected_projection(stream)
    robustness_section: dict = {}
    for kind in ROBUSTNESS_KINDS:
        strategy = robust.RemovalStrategy(kind, seed=cfg.seed)
        curve = robust.robustness_curve(projected, strategy, cfg.robustness_steps)
        robustness_section[kind] = {
            "seed": cfg.seed,
            "adaptive": strategy.adaptive,
            "points": [asdict(pt) for pt in curve.points],
        }

    report = Report(
        config=_config_echo(cfg),
        window=window_info,
        corpus=corpus,
        labels=labels,
        daily_fits=daily_fits,
        aggregate_fit=aggregate_fit,
        correlation=correlation,
        overlap_vs_k=overlap_rows,
        consistency=consistency,
        top_frequency=top_frequency,
        concentration=concentration,
        stability=stability,
        robustness=robustness_section,
        sections_empty=False,
    )
    _emit_all(report, cfg, table, day_hists, agg_hist)
    return report


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def format_columns(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Columnar plot text: one header line, space-delimited numeric columns."""
    lines = [" ".join(header)]
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append("")
    return "\n".join(lines)


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _distribution_rows(hist: powerlaw.DegreeHistogram) -> list[tuple]:
    rows = []
    for k, p, c in zip(hist.support, hist.pdf, hist.ccdf):
        if k <= 0:
            continue
        rows.append((k, p, c, math.log10(k), math.log10(p), math.log10(c)))
    return rows


_DIST_HEADER = ("k", "pdf", "ccdf", "log10_k", "log10_pdf", "log10_ccdf")


def _distribution(hist: powerlaw.DegreeHistogram | None) -> str:
    rows = _distribution_rows(hist) if hist is not None else []
    return format_columns(_DIST_HEADER, rows)


_CURVE_HEADER = ("fraction_removed", "giant_component_fraction", "average_path_length")


def write_robustness_curve(output_dir: Path, kind: str, points: Iterable[dict]) -> Path:
    """Write robustness_<kind>.dat: one row per curve point, keyed as in the report."""
    path = output_dir / f"robustness_{kind}.dat"
    rows = [[p[column] for column in _CURVE_HEADER] for p in points]
    _write(path, format_columns(_CURVE_HEADER, rows))
    return path


def emit_plot_data(
    report: Report,
    output_dir: Path,
    table: centrality.DegreeTable | None = None,
    day_hists: Sequence[powerlaw.DegreeHistogram | None] = (),
    agg_hist: powerlaw.DegreeHistogram | None = None,
) -> None:
    """Write one columnar plot-data file per report section; empty sections
    produce header-only files. Hub series are read from the run's degree
    table (None for an empty window), degree distributions from the run's
    per-day histograms (None for an empty day) and aggregate histogram."""
    corr_rows: list[tuple] = []
    if report.correlation:
        for p in report.correlation["pairs"]:
            corr_rows.append((p["day_a"], p["day_b"], p["r"]))
    _write(
        output_dir / "correlation_series.dat",
        format_columns(("day_a", "day_b", "r"), corr_rows),
    )

    _write(output_dir / "degree_distribution_aggregate.dat", _distribution(agg_hist))
    for t, hist in enumerate(day_hists):
        if hist is not None:
            _write(
                output_dir / "day_distributions" / f"day_{t:04d}.dat",
                _distribution(hist),
            )

    if table is not None:
        for entry in report.concentration["top"]:
            node = entry["node"]
            _write(
                output_dir / "hub_series" / f"node_{node}.dat",
                format_columns(
                    ("day", "degree"), list(enumerate(table.column(node).tolist()))
                ),
            )

    _write(
        output_dir / "overlap_vs_k.dat",
        format_columns(
            ("k", "mean_overlap"),
            [(row["k"], row["mean_overlap"]) for row in report.overlap_vs_k],
        ),
    )

    _write(
        output_dir / "top_frequency.dat",
        format_columns(
            ("node", "days_in_top_k"),
            [(row["node"], row["days"]) for row in report.top_frequency],
        ),
    )

    fit_rows = []
    for row in report.daily_fits:
        ols = row["ols"] or {}
        mle = row["mle"] or {}
        fit_rows.append(
            (
                row["day"],
                ols.get("gamma"),
                ols.get("r_squared"),
                mle.get("gamma"),
                mle.get("ks_statistic"),
                mle.get("xmin"),
                mle.get("n_tail"),
            )
        )
    _write(
        output_dir / "per_day_fits.dat",
        format_columns(
            ("day", "gamma_ols", "r_squared", "gamma_mle", "ks", "xmin", "n_tail"),
            fit_rows,
        ),
    )

    for kind, section in report.robustness.items():
        write_robustness_curve(output_dir, kind, section["points"])


def write_staged(
    output_dir: Path, names: Iterable[str], write: Callable[[Path], None]
) -> None:
    """Let ``write`` fill a staging directory inside ``output_dir``, then
    swap each of ``names`` into place: a previous file or directory of that
    name is replaced, or removed when the new run did not write it. Other
    files in ``output_dir`` are left alone; if ``write`` fails, nothing in
    ``output_dir`` changes."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".commnet-", dir=out))
    try:
        new, old = stage / "new", stage / "old"
        new.mkdir()
        write(new)
        old.mkdir()
        for name in names:
            if (out / name).exists():
                os.replace(out / name, old / name)
            if (new / name).exists():
                os.replace(new / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _emit_all(
    report: Report,
    cfg: PipelineConfig,
    table: centrality.DegreeTable | None = None,
    day_hists: Sequence[powerlaw.DegreeHistogram | None] = (),
    agg_hist: powerlaw.DegreeHistogram | None = None,
) -> None:
    """Stage every file of the run, then swap the names it owns into place."""

    def write(new: Path) -> None:
        _write(
            new / "report.json",
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        emit_plot_data(report, new, table, day_hists, agg_hist)
        run_info = {
            "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "note": "wall-clock metadata; excluded from determinism guarantees",
        }
        _write(
            new / RUN_INFO_FILENAME,
            json.dumps(run_info, indent=2, sort_keys=True) + "\n",
        )

    write_staged(cfg.output_dir, OWNED_NAMES, write)
