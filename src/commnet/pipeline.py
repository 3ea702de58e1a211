"""Batch pipeline: ingest or generate a corpus, run every analysis, emit files.

Given a config the pipeline produces a versioned JSON report plus one columnar
plot-data file per result family (consecutive-day correlation, per-day
and aggregate degree distributions, per-hub degree series, overlap-vs-k,
top-k frequency, per-day fits, robustness curves). Output is deterministic for
a fixed config: any wall-clock information goes to run_info.json, which is the
single file excluded from the byte-for-byte determinism contract.

``run`` goes through its stages in this order, and each holds only what the
stages after it read:

1. Acquire: parse the log or generate the corpus. Alive: the stream's
   columns.
2. Temporal half (``_temporal_stage``): slice the stream into days, build
   the degree table, and from it the fits, correlation, overlap, consistency,
   concentration and stability. Each plot file is written as soon as its
   numbers exist: a day's distribution inside the per-day loop, a hub's
   series from its stability series. Alive: the stream, the day window, the
   degree table and one day's histogram at a time. It returns the report,
   which holds plain Python values, and everything else it made is freed.
3. Graph half: project the stream into one undirected graph, then drop the
   stream. Alive: the projection, which shares the stream's node registry,
   the edge list every curve reads and one curve's state at a time; then
   write the curves.
4. Write report.json and run_info.json.

An empty window ends after the temporal half: its single-file results are
header-only, and no curve runs.

The CLI verbs share the steps here: ``read_log``, ``ingest_counts``,
``robustness_stage``, ``write_robustness_curves`` and ``staged``.

Every file of a run is first written to a staging directory inside the
output directory, made before the input is read. Only when every file is
written does the run swap them in, name by name, replacing the previous run's
files of the same names (see OWNED_NAMES) and leaving every other file in the
directory alone. A run that fails midway removes its staging directory and
leaves the previous outputs untouched. The CLI's ``--output`` files go
through the same staging.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import centrality, dynamics, powerlaw, robustness as robust
from .errors import (
    CommnetError,
    ConfigError,
    EmptyHistogramError,
    InsufficientSupportError,
)
from .generators import HubCorpusParams, generate_hub_corpus
from .ingest import (
    IngestReport,
    LogFormatConfig,
    parse_edge_log,
    validate_malformed_threshold,
)
from .temporal import (
    MAX_WINDOW_DAYS,
    SECONDS_PER_DAY,
    TemporalEdgeStream,
    UndirectedGraph,
    slice_days,
    undirected_projection,
)

REPORT_SCHEMA_VERSION = 1
RUN_INFO_FILENAME = "run_info.json"  # excluded from the determinism contract
ROBUSTNESS_KINDS = ("random", "targeted")
ROBUSTNESS_FILES = tuple(f"robustness_{kind}.dat" for kind in ROBUSTNESS_KINDS)
DEFAULT_STEPS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)  # removal fractions of a curve
# every name a run writes in its output directory; a rerun replaces them all
OWNED_NAMES = (
    "report.json",
    RUN_INFO_FILENAME,
    "correlation_series.dat",
    "degree_distribution_aggregate.dat",
    "overlap_vs_k.dat",
    "top_frequency.dat",
    "per_day_fits.dat",
    *ROBUSTNESS_FILES,
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
    robustness_steps: tuple[float, ...] = DEFAULT_STEPS
    seed: int = 0

    def validate(self) -> None:
        if (self.input_path is None) == (self.hub_params is None):
            raise ConfigError("exactly one of input_path or hub_params must be set")
        if self.direction not in centrality.VALID_DIRECTIONS:
            raise ConfigError(f"direction must be one of {centrality.VALID_DIRECTIONS}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.fit_target not in ("pdf", "ccdf"):
            raise ConfigError("fit_target must be 'pdf' or 'ccdf'")
        if self.fit_xmin < 1:
            raise ConfigError("fit_xmin must be >= 1")
        # a NaN or an infinity would also reach report.json, which JSON forbids
        if not 0 <= self.cv_threshold < math.inf:
            raise ConfigError("cv_threshold must be a finite number >= 0")
        if abs(self.tz_offset_seconds) >= SECONDS_PER_DAY:
            raise ConfigError("tz_offset_seconds must lie within one day of 0")
        days = self.window_days
        if days is not None and not 1 <= days <= MAX_WINDOW_DAYS:
            raise ConfigError(f"window_days must lie in 1 .. {MAX_WINDOW_DAYS} (100 years)")
        try:
            dynamics.validate_k_values(self.k_values)
            validate_malformed_threshold(self.malformed_threshold)
            robust.validate_steps(self.robustness_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
) -> tuple[TemporalEdgeStream, dict, dict]:
    """The stream, its report.json source entry and its run_info.json entries."""
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
        return stream, source, {}
    assert cfg.input_path is not None
    started = time.perf_counter()
    stream, ingest_report = read_log(
        cfg.input_path,
        cfg.log_format,
        malformed_threshold=cfg.malformed_threshold,
        collapse_duplicates=cfg.collapse_duplicates,
    )
    malformed_lines = [list(row) for row in ingest_report.malformed_rows[:50]]
    source = {
        "kind": "log",
        "path": str(cfg.input_path),
        "ingest": {**ingest_counts(ingest_report), "malformed_lines": malformed_lines},
    }
    # lines left to the per-line parser show when a log misses the fast path
    info = {
        "ingest": {
            "seconds": time.perf_counter() - started,
            "rows_read": ingest_report.rows_read,
            "fallback_lines": ingest_report.fallback_lines,
        }
    }
    return stream, source, info


def read_log(
    path: str | Path, log_format: LogFormatConfig, **options
) -> tuple[TemporalEdgeStream, IngestReport]:
    """Parse the message log at ``path``; ``options`` go to ``parse_edge_log``."""
    with open(path, "rb") as fh:
        return parse_edge_log(fh, log_format, **options)


def ingest_counts(report: IngestReport) -> dict:
    """The row counts of one parse, as ``ingest`` prints and report.json holds them."""
    return {
        "rows_read": report.rows_read,
        "accepted": report.accepted,
        "self_loops_dropped": report.self_loops_dropped,
        "malformed": report.malformed,
        "duplicates_collapsed": report.duplicates_collapsed,
    }


def robustness_stage(
    graph: UndirectedGraph,
    strategies: Iterable[robust.RemovalStrategy],
    steps: Sequence[float],
    path_length: bool = True,
) -> dict:
    """Run each removal strategy over ``graph``; return the report.json
    robustness section, one entry per strategy kind."""
    curves = robust.robustness_curves(
        graph, strategies, steps, compute_path_length=path_length
    )
    return {
        c.strategy.kind: {
            "seed": c.strategy.seed,
            "adaptive": c.strategy.adaptive,
            "points": [asdict(pt) for pt in c.points],
        }
        for c in curves
    }


def _histogram(degrees: np.ndarray) -> powerlaw.DegreeHistogram | None:
    try:
        return powerlaw.histogram(degrees)
    except EmptyHistogramError:
        return None


def _fit_dicts(
    degrees: np.ndarray,
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
        fit = powerlaw.fit_mle_sweep(degrees)
        out["mle"] = {
            "gamma": fit.gamma,
            "ks_statistic": fit.ks_statistic,
            "xmin": fit.xmin,
            "n_tail": fit.n_tail,
        }
    except InsufficientSupportError:
        pass
    return out


def run(cfg: PipelineConfig) -> Report:
    """Run the full pipeline and write report plus plot data to cfg.output_dir.

    Staging starts before the input is read, so an output directory that
    cannot be made (a file of that name, say) fails the run before any work.
    """
    cfg.validate()
    with staged(cfg.output_dir, OWNED_NAMES) as new:
        stream, source, info = _acquire_stream(cfg)
        report = _temporal_stage(cfg, stream, source, new)
        if not report.sections_empty:
            graph = undirected_projection(stream)
            del stream  # the curves read only the projection
            strategies = [robust.RemovalStrategy(kind, seed=cfg.seed) for kind in ROBUSTNESS_KINDS]
            report.robustness = robustness_stage(graph, strategies, cfg.robustness_steps)
            write_robustness_curves(new, report.robustness)
        _write(
            new / "report.json",
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        run_info = {
            "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "note": "wall-clock metadata; excluded from determinism guarantees",
            **info,
        }
        _write(
            new / RUN_INFO_FILENAME,
            json.dumps(run_info, indent=2, sort_keys=True) + "\n",
        )
    return report


def _temporal_stage(
    cfg: PipelineConfig, stream: TemporalEdgeStream, source: dict, out: Path
) -> Report:
    """Every analysis of the stream's days: write each temporal plot file into
    ``out`` as its numbers are computed and return the report, whose
    robustness section is left empty. The window, the degree table and the
    histograms are freed on return."""
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

    def emit(name: str, rows: Iterable[Sequence]) -> None:
        _write(out / name, format_columns(_TEMPORAL_HEADERS[name], rows))

    if not non_empty:
        for name in _TEMPORAL_HEADERS:
            emit(name, [])
        return Report(_config_echo(cfg), window_info, corpus, labels)

    table = centrality.degree_table(stream, window, cfg.direction)

    # one histogram per non-empty day and one for the aggregate feed both the
    # OLS fits and the distribution files
    daily_fits = []
    fit_rows = []
    for t in non_empty:
        degrees = table.values[t]
        hist = _histogram(degrees)
        if hist is not None:
            _write(
                out / "day_distributions" / f"day_{t:04d}.dat",
                format_columns(_DIST_HEADER, _distribution_rows(hist)),
            )
        fits = _fit_dicts(degrees, hist, cfg.fit_target, cfg.fit_xmin)
        daily_fits.append(
            {
                "day": t,
                "date": window.date(t).isoformat(),
                "active_nodes": int(np.count_nonzero(degrees)),
                "messages": int(messages[t]),
                **fits,
            }
        )
        ols, mle = fits["ols"] or {}, fits["mle"] or {}
        fit_rows.append(
            (
                t,
                ols.get("gamma"),
                ols.get("r_squared"),
                mle.get("gamma"),
                mle.get("ks_statistic"),
                mle.get("xmin"),
                mle.get("n_tail"),
            )
        )
    emit("per_day_fits.dat", fit_rows)

    aggregate = table.values.sum(axis=0)
    agg_hist = _histogram(aggregate)
    aggregate_fit = _fit_dicts(aggregate, agg_hist, cfg.fit_target, cfg.fit_xmin)
    emit("degree_distribution_aggregate.dat", _distribution_rows(agg_hist))

    correlation = None
    pairs: tuple = ()
    if window.length >= 2:
        series = dynamics.consecutive_day_correlation(table)
        pairs = series.pairs
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
                for p in pairs
            ],
            "median_r": statistics.median(defined) if defined else None,
        }
    emit("correlation_series.dat", [(p.day_a, p.day_b, p.r) for p in pairs])

    overlap = dynamics.overlap_vs_k(table, cfg.k_values)
    overlap_rows = [{"k": k, "mean_overlap": v} for k, v in overlap.items()]
    emit("overlap_vs_k.dat", overlap.items())

    consistency_result, freq_table = dynamics.daily_vs_aggregate_consistency(
        table, cfg.k
    )
    consistency = {
        "k": consistency_result.k,
        "count": consistency_result.count,
        "percentage": consistency_result.percentage,
    }
    top_frequency = [{"node": node, "days": days} for node, days in freq_table.items()]
    emit("top_frequency.dat", freq_table.items())

    top = centrality.top_k(table.nodes, aggregate, cfg.k)
    concentration = {
        "k": cfg.k,
        "direction": cfg.direction,
        "share": centrality.degree_share(table.nodes, aggregate, top),
        "top": [{"node": node, "degree": deg} for node, deg in top.entries],
    }

    stability = []
    for node, _ in top.entries:
        ns = dynamics.node_series(table, node)
        _write(
            out / "hub_series" / f"node_{node}.dat",
            format_columns(("day", "degree"), enumerate(ns.values)),
        )
        stability.append(
            {
                "node": node,
                "mean": ns.mean,
                "cv": ns.cv,
                "class": dynamics.classify_stability(ns, cfg.cv_threshold).value,
            }
        )

    return Report(
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
        sections_empty=False,
    )


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


_DIST_HEADER = ("k", "pdf", "ccdf", "log10_k", "log10_pdf", "log10_ccdf")
# the temporal files every run writes, an empty window's with the header alone
_TEMPORAL_HEADERS = {
    "correlation_series.dat": ("day_a", "day_b", "r"),
    "degree_distribution_aggregate.dat": _DIST_HEADER,
    "overlap_vs_k.dat": ("k", "mean_overlap"),
    "top_frequency.dat": ("node", "days_in_top_k"),
    "per_day_fits.dat": ("day", "gamma_ols", "r_squared", "gamma_mle", "ks", "xmin", "n_tail"),
}


def _distribution_rows(hist: powerlaw.DegreeHistogram | None) -> list[tuple]:
    """A degree-distribution file's rows; none for an empty histogram."""
    if hist is None:
        return []
    rows = []
    for k, p, c in zip(hist.support, hist.pdf, hist.ccdf):
        if k <= 0:
            continue
        rows.append((k, p, c, math.log10(k), math.log10(p), math.log10(c)))
    return rows


_CURVE_HEADER = ("fraction_removed", "giant_component_fraction", "average_path_length")


def write_robustness_curves(output_dir: Path, section: dict) -> None:
    """Write robustness_<kind>.dat for each kind of a robustness section: one
    row per curve point, keyed as in the report."""
    for kind, entry in section.items():
        rows = [[p[column] for column in _CURVE_HEADER] for p in entry["points"]]
        _write(output_dir / f"robustness_{kind}.dat", format_columns(_CURVE_HEADER, rows))


@contextlib.contextmanager
def staged(output_dir: Path, names: Iterable[str]) -> Iterator[Path]:
    """Yield an empty staging directory inside ``output_dir`` (made if
    missing). When the block completes, each of ``names`` is swapped into
    ``output_dir``: a new file goes over an old file in one rename; any other
    old entry of that name, or one the block did not write, is moved aside
    first and removed. Other files in ``output_dir`` are left alone; if the
    block raises, nothing in ``output_dir`` changes."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".commnet-", dir=out))
    try:
        new, old = stage / "new", stage / "old"
        new.mkdir()
        old.mkdir()
        yield new
        for name in names:
            current = out / name
            if current.is_dir() or (current.exists() and not (new / name).is_file()):
                os.replace(current, old / name)
            if (new / name).exists():
                os.replace(new / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)

