"""Communication-network prominence and robustness analytics.

Holds a timestamped message log as columns sliced into calendar days,
measures message-weighted degree prominence and its day-to-day stability
from one days x nodes degree table, fits power-law degree distributions,
generates synthetic reference networks, and runs failure/attack tolerance
experiments on the undirected aggregate graph.

Importing the package loads no module of it: each public name is looked up
in its module on first use (PEP 562), so a process loads only the modules it
runs. ``commnet.cli`` imports what every verb shares, and ``analyze`` loads
the analysis modules (centrality, dynamics, powerlaw) itself.
"""
import importlib
import os

# numpy's OpenBLAS starts a worker pool on import whose threads spin while
# the rest of the package imports, about 0.06-0.09 s of wall per process;
# no code here calls BLAS. This must run before anything imports numpy, and
# a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "centrality": "DegreeTable degree_share degree_table top_k",
        "dynamics": "CorrelationSeries DegreeSeries OverlapResult PairCorrelation"
        " Stability classify_stability consecutive_day_correlation"
        " daily_vs_aggregate_consistency node_series overlap_vs_k",
        "generators": "BAParams ERParams HubCorpusParams generate_ba generate_er"
        " generate_hub_corpus",
        "ingest": "IngestReport LogFormatConfig parse_edge_log write_edge_log",
        "powerlaw": "DegreeHistogram PowerLawFit fit_mle fit_mle_sweep fit_ols histogram",
        "robustness": "RemovalStrategy RobustnessCurve RobustnessPoint robustness_curves",
        "temporal": "DayWindow TemporalEdgeStream UndirectedGraph slice_days"
        " undirected_projection",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
# the submodules that ``import commnet`` loaded when it imported every name
_MODULES = {*_EXPORTS.values(), "errors"}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
