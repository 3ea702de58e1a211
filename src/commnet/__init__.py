"""Communication-network prominence and robustness analytics.

Builds daily and aggregated directed multigraphs from timestamped message
logs, measures message-weighted degree prominence and its day-to-day
stability, fits power-law degree distributions, generates synthetic reference
networks, and runs failure/attack tolerance experiments.
"""
from .centrality import (
    DegreeMap,
    DegreeTable,
    RankList,
    degree,
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
    pearson,
    rank_overlap,
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
    merge_streams,
    parse_edge_log,
    write_edge_log,
)
from .powerlaw import (
    DegreeHistogram,
    LogBinnedHistogram,
    PowerLawFit,
    fit_mle,
    fit_mle_sweep,
    fit_ols,
    fit_ols_binned,
    histogram,
    log_bin,
)
from .robustness import (
    RemovalStrategy,
    RobustnessCurve,
    RobustnessPoint,
    average_path_length,
    giant_component_fraction,
    robustness_curve,
)
from .temporal import (
    AggregateGraph,
    DailySnapshot,
    TemporalEdge,
    TemporalEdgeStream,
    UndirectedGraph,
    aggregate,
    build_snapshots,
    undirected_projection,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateGraph",
    "BAParams",
    "CorrelationSeries",
    "DailySnapshot",
    "DegreeHistogram",
    "DegreeMap",
    "DegreeTable",
    "DegreeSeries",
    "ERParams",
    "HubCorpusParams",
    "IngestReport",
    "LogBinnedHistogram",
    "LogFormatConfig",
    "OverlapResult",
    "PairCorrelation",
    "PowerLawFit",
    "RankList",
    "RemovalStrategy",
    "RobustnessCurve",
    "RobustnessPoint",
    "Stability",
    "TemporalEdge",
    "TemporalEdgeStream",
    "UndirectedGraph",
    "aggregate",
    "average_path_length",
    "build_snapshots",
    "classify_stability",
    "consecutive_day_correlation",
    "daily_vs_aggregate_consistency",
    "degree",
    "degree_share",
    "degree_table",
    "fit_mle",
    "fit_mle_sweep",
    "fit_ols",
    "fit_ols_binned",
    "generate_ba",
    "generate_er",
    "generate_hub_corpus",
    "giant_component_fraction",
    "histogram",
    "log_bin",
    "merge_streams",
    "node_series",
    "overlap_vs_k",
    "parse_edge_log",
    "pearson",
    "rank_overlap",
    "robustness_curve",
    "top_k",
    "undirected_projection",
    "write_edge_log",
]
