"""Batch pipeline: ingest a message log, run every analysis, emit files.

Given a config the pipeline produces a versioned JSON report plus one columnar
plot-data file per result family (consecutive-day correlation, per-day
and aggregate degree distributions, per-hub degree series, overlap-vs-k,
top-k frequency, per-day fits, robustness curves). Output is deterministic for
a fixed config: any wall-clock information goes to run_info.json, which is the
single file excluded from the byte-for-byte determinism contract.

``PipelineConfig`` is the one list of analyze's settings and their defaults,
which the CLI's flags take. The report's "config" records every setting but
where the outputs go (``_config_echo``).

``run`` goes through its stages in this order, and each holds only what the
stages after it read:

1. Acquire: parse the log, read from its file a chunk at a time. Alive:
   the stream's columns and one chunk's arrays; while a log out of time
   order is sorted, one permutation and one spare column too.
2. Temporal half (``_temporal_stage``): slice the stream into days, build
   the degree table, and from it the fits, correlation, overlap, consistency,
   concentration and stability. Each plot file is written as soon as its
   numbers exist: a day's distribution inside the per-day loop, a hub's
   series from its stability series. Each single-table file's rows are read
   off the report entries it mirrors. Alive: the stream, the day window
   (one message offset per day, no array per message), the degree table
   and one day's histogram at a time. It returns the report, which holds
   plain Python values, and everything else it made is freed.
3. Graph half: project the stream into one undirected graph, its pair keys
   deduplicated a block at a time, then drop the stream. Alive: the
   projection, which shares the stream's node registry, the edge list every
   curve reads and one curve's state at a time.
   ``robustness_stage`` writes each curve's file from its report section.
4. Write report.json and run_info.json.

A log that leaves no message has nothing to analyze: ``read_messages``
raises InsufficientDataError, naming the parse's counts, before any day is
sliced, and the run writes no file.

The CLI verbs share the steps here: ``read_log``, ``read_messages``,
``ingest_counts``, ``robustness_stage`` and ``staged``. Importing this
module loads none of the analysis modules (centrality, dynamics, powerlaw
and the standard library's statistics): the functions that call them import
them, and ``run`` loads them all before it reads the input, so the other
verbs never pay for them and analyze allocates them below the parse's memory
peak.

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
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import robustness as robust
from .errors import ConfigError, InsufficientDataError, InsufficientSupportError
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
REPORT_FILENAME = "report.json"
RUN_INFO_FILENAME = "run_info.json"  # excluded from the determinism contract
# each removal kind's curve file; a run writes one per kind
CURVE_FILES = {kind: f"robustness_{kind}.dat" for kind in robust.REMOVAL_KINDS}
ROBUSTNESS_FILES = tuple(CURVE_FILES.values())
DEFAULT_STEPS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)  # removal fractions of a curve
_DIST_HEADER = ("k", "pdf", "ccdf", "log10_k", "log10_pdf", "log10_ccdf")
# the temporal files every run writes
_TEMPORAL_HEADERS = {
    "correlation_series.dat": ("day_a", "day_b", "r"),
    "degree_distribution_aggregate.dat": _DIST_HEADER,
    "overlap_vs_k.dat": ("k", "mean_overlap"),
    "top_frequency.dat": ("node", "days_in_top_k"),
    "per_day_fits.dat": ("day", "gamma_ols", "r_squared", "gamma_mle", "ks", "xmin", "n_tail"),
}
_DAY_DISTRIBUTIONS = "day_distributions"  # one file per non-empty day
_HUB_SERIES = "hub_series"  # one file per top-k node
# every name a run writes in its output directory; a rerun replaces them all
OWNED_NAMES = (
    REPORT_FILENAME,
    RUN_INFO_FILENAME,
    *_TEMPORAL_HEADERS,
    *ROBUSTNESS_FILES,
    _DAY_DISTRIBUTIONS,
    _HUB_SERIES,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs: the log to read, how to read it, the
    analysis settings and where the outputs go."""

    output_dir: Path
    input_path: Path
    log_format: LogFormatConfig = field(default_factory=LogFormatConfig)
    malformed_threshold: float = 0.01
    collapse_duplicates: bool = False
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
        from . import centrality, dynamics, powerlaw

        if self.direction not in centrality.VALID_DIRECTIONS:
            raise ConfigError(f"direction must be one of {centrality.VALID_DIRECTIONS}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.fit_target not in powerlaw.FIT_TARGETS:
            raise ConfigError(f"fit_target must be one of {powerlaw.FIT_TARGETS}")
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
            robust.validate_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class Report:
    """Assembled analysis results, JSON-serializable via to_dict()."""

    config: dict
    window: dict
    corpus: dict
    labels: dict
    daily_fits: list[dict] = field(default_factory=list)
    aggregate_fit: dict | None = None
    correlation: dict | None = None
    overlap_vs_k: list[dict] = field(default_factory=list)
    consistency: dict | None = None
    top_frequency: list[dict] = field(default_factory=list)
    concentration: dict | None = None
    stability: list[dict] = field(default_factory=list)
    robustness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **{f.name: getattr(self, f.name) for f in fields(self)},
        }


def _config_echo(cfg: PipelineConfig) -> dict:
    """The report's "config": every PipelineConfig field but output_dir, a
    path as text, a date in ISO form, a tuple as a list and the log format
    as its fields."""
    echo = {}
    for name in (f.name for f in fields(cfg) if f.name != "output_dir"):
        value = getattr(cfg, name)
        if isinstance(value, LogFormatConfig):
            value = {**asdict(value), "columns": list(value.columns)}
        elif isinstance(value, Path):
            value = str(value)
        elif isinstance(value, dt.date):
            value = value.isoformat()
        elif isinstance(value, tuple):
            value = list(value)
        echo[name] = value
    return echo


def _acquire_stream(
    cfg: PipelineConfig,
) -> tuple[TemporalEdgeStream, dict, dict]:
    """The stream, its report.json source entry and its run_info.json entries."""
    started = time.perf_counter()
    stream, ingest_report = read_messages(
        cfg.input_path,
        cfg.log_format,
        malformed_threshold=cfg.malformed_threshold,
        collapse_duplicates=cfg.collapse_duplicates,
    )
    malformed_lines = [list(row) for row in ingest_report.malformed_rows[:50]]
    source = {
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


def read_messages(
    path: str | Path, log_format: LogFormatConfig, **options
) -> tuple[TemporalEdgeStream, IngestReport]:
    """``read_log`` for a verb that analyzes the messages: raises
    InsufficientDataError, naming the parse's counts, if none is left."""
    stream, report = read_log(path, log_format, **options)
    if not len(stream):
        counts = ", ".join(f"{name} {n}" for name, n in ingest_counts(report).items())
        raise InsufficientDataError(f"message log is empty ({counts})")
    return stream, report


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
    out: Path,
    graph: UndirectedGraph,
    strategies: Iterable[robust.RemovalStrategy],
    steps: Sequence[float],
    path_length: bool = True,
) -> dict:
    """Run each removal strategy over ``graph``; write each curve's file
    (CURVE_FILES) into ``out``, one row per point, and return the
    report.json robustness section, one entry per strategy kind.

    Raises ValueError, before any curve runs, if two strategies share a
    kind, whose one file and entry could hold only one of their curves.
    """
    strategies = list(strategies)
    kinds = [s.kind for s in strategies]
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ValueError(f"more than one strategy of kind {kind!r}")
    curves = robust.robustness_curves(
        graph, strategies, steps, compute_path_length=path_length
    )
    section = {}
    for c in curves:
        points = [asdict(pt) for pt in c.points]
        _write(
            out / CURVE_FILES[c.strategy.kind],
            format_columns(_CURVE_HEADER, _pick(points, _CURVE_HEADER)),
        )
        section[c.strategy.kind] = {
            "seed": c.strategy.seed,
            "adaptive": c.strategy.adaptive,
            "points": points,
        }
    return section


def _fit_dicts(
    degrees: np.ndarray, hist: powerlaw.DegreeHistogram, target: str, xmin: int
) -> dict:
    """OLS (on the histogram) and MLE fits for one day or the aggregate;
    None where unfittable."""
    from . import powerlaw

    out: dict = {"ols": None, "mle": None}
    try:
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
    # the analysis modules, loaded before the parse to lie below its memory peak
    import statistics  # noqa: F401

    from . import centrality, dynamics, powerlaw  # noqa: F401

    with staged(cfg.output_dir, OWNED_NAMES) as new:
        stream, source, info = _acquire_stream(cfg)
        report = _temporal_stage(cfg, stream, source, new)
        graph = undirected_projection(stream)
        del stream  # the curves read only the projection
        strategies = [robust.RemovalStrategy(kind, seed=cfg.seed) for kind in robust.REMOVAL_KINDS]
        report.robustness = robustness_stage(new, graph, strategies, cfg.robustness_steps)
        _write(
            new / REPORT_FILENAME,
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
    import statistics

    from . import centrality, dynamics, powerlaw

    window = slice_days(
        stream,
        cfg.window_start,
        num_days=cfg.window_days,
        tz_offset_seconds=cfg.tz_offset_seconds,
    )
    messages = window.message_counts()
    non_empty = np.flatnonzero(messages).tolist()
    report = Report(
        config=_config_echo(cfg),
        window={
            "start": window.date(0).isoformat(),
            "days": window.length,
            "non_empty_days": len(non_empty),
            "tz_offset_seconds": cfg.tz_offset_seconds,
        },
        corpus={
            "nodes": len(stream.node_registry),
            "messages": len(stream),
            "source": source,
        },
        labels={str(k): v for k, v in sorted(stream.labels.items())},
    )

    def emit(name: str, rows: Iterable[Sequence]) -> None:
        _write(out / name, format_columns(_TEMPORAL_HEADERS[name], rows))

    table = centrality.degree_table(stream, window, cfg.direction)

    # one histogram per non-empty day and one for the aggregate feed both the
    # OLS fits and the distribution files. A non-empty day's out- or
    # in-degrees sum to its message count and its total degrees to twice
    # that, and the aggregate sums such days, so no histogram here is empty.
    # The stream holds a message and slice_days refuses one outside the
    # window, so some day is non-empty
    for t in non_empty:
        degrees = table.values[t]
        hist = powerlaw.histogram(degrees)
        _write(
            out / _DAY_DISTRIBUTIONS / f"day_{t:04d}.dat",
            format_columns(_DIST_HEADER, _distribution_rows(hist)),
        )
        report.daily_fits.append(
            {
                "day": t,
                "date": window.date(t).isoformat(),
                "active_nodes": int(np.count_nonzero(degrees)),
                "messages": int(messages[t]),
                **_fit_dicts(degrees, hist, cfg.fit_target, cfg.fit_xmin),
            }
        )
    emit("per_day_fits.dat", map(_fit_row, report.daily_fits))

    aggregate = table.aggregate
    agg_hist = powerlaw.histogram(aggregate)
    report.aggregate_fit = _fit_dicts(aggregate, agg_hist, cfg.fit_target, cfg.fit_xmin)
    emit("degree_distribution_aggregate.dat", _distribution_rows(agg_hist))

    if window.length >= 2:
        series = dynamics.consecutive_day_correlation(table)
        defined = series.defined_values
        report.correlation = {
            "policy": series.policy,
            "direction": cfg.direction,
            "pairs": [asdict(p) for p in series.pairs],
            "median_r": statistics.median(defined) if defined else None,
        }
    name = "correlation_series.dat"
    pairs = report.correlation["pairs"] if report.correlation else []
    emit(name, _pick(pairs, _TEMPORAL_HEADERS[name]))

    overlap = dynamics.overlap_vs_k(table, cfg.k_values)
    report.overlap_vs_k = [{"k": k, "mean_overlap": v} for k, v in overlap.items()]
    emit("overlap_vs_k.dat", overlap.items())

    consistency, freq_table = dynamics.daily_vs_aggregate_consistency(table, cfg.k)
    report.consistency = {
        **asdict(consistency),
        "percentage": consistency.percentage,
    }
    report.top_frequency = [{"node": node, "days": days} for node, days in freq_table.items()]
    emit("top_frequency.dat", freq_table.items())

    top = centrality.top_k(table.nodes, aggregate, cfg.k)
    report.concentration = {
        "k": cfg.k,
        "direction": cfg.direction,
        "share": centrality.degree_share(table.nodes, aggregate, cfg.k),
        "top": [{"node": node, "degree": deg} for node, deg in top],
    }

    for node, _ in top:
        ns = dynamics.node_series(table, node)
        _write(
            out / _HUB_SERIES / f"node_{node}.dat",
            format_columns(("day", "degree"), enumerate(ns.values)),
        )
        report.stability.append(
            {
                "node": node,
                "mean": ns.mean,
                "cv": ns.cv,
                "class": dynamics.classify_stability(ns, cfg.cv_threshold).value,
            }
        )
    return report


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------


def format_columns(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Columnar plot text: one header line, space-delimited numeric columns.
    A cell is its value's str, the shortest text that reads back as the same
    number (a numpy float too), and "nan" for None."""
    lines = (" ".join("nan" if v is None else str(v) for v in row) for row in rows)
    return "\n".join([" ".join(header), *lines, ""])


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


_CURVE_HEADER = ("fraction_removed", "giant_component_fraction", "average_path_length")


def _pick(entries: Iterable[dict], keys: Sequence[str]) -> list[list]:
    """Plot rows read off report entries: each entry's values at ``keys``."""
    return [[entry[key] for key in keys] for entry in entries]


def _fit_row(entry: dict) -> tuple:
    """The per_day_fits.dat row of one daily_fits entry; nan for a missing fit."""
    ols, mle = entry["ols"] or {}, entry["mle"] or {}
    return (
        entry["day"],
        ols.get("gamma"),
        ols.get("r_squared"),
        mle.get("gamma"),
        mle.get("ks_statistic"),
        mle.get("xmin"),
        mle.get("n_tail"),
    )


def _distribution_rows(hist: powerlaw.DegreeHistogram) -> list[tuple]:
    """A degree-distribution file's rows; the support starts at 1."""
    return [
        (k, p, c, math.log10(k), math.log10(p), math.log10(c))
        for k, p, c in zip(hist.support, hist.pdf, hist.ccdf)
    ]


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

