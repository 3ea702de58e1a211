"""Communication-network prominence and robustness analytics.

Holds a timestamped message log as int64 columns sliced into calendar days,
measures message-weighted degree prominence and its day-to-day stability
from one days x nodes degree table, fits power-law degree distributions,
generates synthetic reference networks, and runs failure/attack tolerance
experiments on the undirected aggregate graph.
"""
import os

# numpy's OpenBLAS starts a worker pool on import whose threads spin while
# the rest of the package imports, about 0.06-0.09 s of wall per process;
# no code here calls BLAS. This must run before anything imports numpy, and
# a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .centrality import (
    DegreeTable,
    RankList,
    degree_share,
    degree_table,
    top_k,
)
from .dynamics import (
    CorrelationSeries,
    DegreeSeries,
    OverlapResult,
    PairCorrelation,
    Stability,
    classify_stability,
    consecutive_day_correlation,
    daily_vs_aggregate_consistency,
    node_series,
    overlap_vs_k,
)
from .generators import (
    BAParams,
    ERParams,
    HubCorpusParams,
    generate_ba,
    generate_er,
    generate_hub_corpus,
)
from .ingest import (
    IngestReport,
    LogFormatConfig,
    parse_edge_log,
    write_edge_log,
)
from .powerlaw import (
    DegreeHistogram,
    PowerLawFit,
    fit_mle,
    fit_mle_sweep,
    fit_ols,
    histogram,
)
from .robustness import (
    RemovalStrategy,
    RobustnessCurve,
    RobustnessPoint,
    robustness_curves,
)
from .temporal import (
    DayWindow,
    TemporalEdgeStream,
    UndirectedGraph,
    slice_days,
    undirected_projection,
)

__version__ = "0.1.0"

__all__ = [
    "BAParams",
    "CorrelationSeries",
    "DayWindow",
    "DegreeHistogram",
    "DegreeSeries",
    "DegreeTable",
    "ERParams",
    "HubCorpusParams",
    "IngestReport",
    "LogFormatConfig",
    "OverlapResult",
    "PairCorrelation",
    "PowerLawFit",
    "RankList",
    "RemovalStrategy",
    "RobustnessCurve",
    "RobustnessPoint",
    "Stability",
    "TemporalEdgeStream",
    "UndirectedGraph",
    "classify_stability",
    "consecutive_day_correlation",
    "daily_vs_aggregate_consistency",
    "degree_share",
    "degree_table",
    "fit_mle",
    "fit_mle_sweep",
    "fit_ols",
    "generate_ba",
    "generate_er",
    "generate_hub_corpus",
    "histogram",
    "node_series",
    "overlap_vs_k",
    "parse_edge_log",
    "robustness_curves",
    "slice_days",
    "top_k",
    "undirected_projection",
    "write_edge_log",
]
