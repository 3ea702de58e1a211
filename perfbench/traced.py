"""Outside-in tracer for commnet: wrap public functions, then run the CLI.

Usage: python3 traced.py RESULT_JSON -- <commnet CLI arguments>

Each wrapper is installed on the name a caller looks the function up through
(``commnet.centrality.degree`` for the pipeline, ``commnet.dynamics.degree``
for dynamics, and so on), so no code inside ``src/`` changes. A span records
its duration and the part of that duration covered by wrapped callees; the
difference is the span's self time. A target that no longer exists after a
refactor is listed under ``missing`` and the run goes on without it.

The result file holds ``{"rc", "import_s", "spans", "counts", "missing"}``.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


def _rows_read(args, kwargs, result):
    return {"ingest.rows": result[1].rows_read}


def _snapshot_counts(args, kwargs, result):
    return {
        "temporal.days": len(result),
        "temporal.day_edges": sum(len(s.edges) for s in result),
    }


def _agg_edges(args, kwargs, result):
    return {"temporal.agg_edges": len(result.edges)}


def _bfs_counts(args, kwargs, result):
    graph = args[0] if args else kwargs["csgraph"]
    indices = kwargs.get("indices")
    sources = graph.shape[0] if indices is None else len(indices)
    # computed, not observed: every BFS source scans every stored entry once
    return {
        "robustness.bfs.sources": sources,
        "robustness.bfs.edge_visits": sources * graph.nnz,
    }


def _curve_span(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    return f"robustness.curve.{strategy.kind}"


# (module, name as its callers look it up, span, options)
ANALYSIS_TARGETS = (
    ("commnet.cli", "main", "cli.main", {}),
    ("commnet.cli", "run", "pipeline.run", {}),
    ("commnet.pipeline", "parse_edge_log", "ingest.parse_edge_log",
     {"rss": True, "counts": _rows_read}),
    ("commnet.cli", "parse_edge_log", "ingest.parse_edge_log",
     {"rss": True, "counts": _rows_read}),
    ("commnet.pipeline", "build_snapshots", "temporal.build_snapshots",
     {"rss": True, "counts": _snapshot_counts}),
    ("commnet.cli", "build_snapshots", "temporal.build_snapshots",
     {"rss": True, "counts": _snapshot_counts}),
    ("commnet.pipeline", "aggregate", "temporal.aggregate", {"counts": _agg_edges}),
    ("commnet.cli", "aggregate", "temporal.aggregate", {"counts": _agg_edges}),
    ("commnet.pipeline", "undirected_projection", "temporal.undirected_projection", {}),
    ("commnet.cli", "undirected_projection", "temporal.undirected_projection", {}),
    ("commnet.centrality", "degree", "centrality.degree", {}),
    ("commnet.dynamics", "degree", "centrality.degree", {}),
    ("commnet.centrality", "top_k", "centrality.top_k", {}),
    ("commnet.dynamics", "top_k", "centrality.top_k", {}),
    ("commnet.dynamics", "consecutive_day_correlation",
     "dynamics.consecutive_day_correlation", {}),
    ("commnet.dynamics", "overlap_vs_k", "dynamics.overlap_vs_k", {}),
    ("commnet.dynamics", "daily_vs_aggregate_consistency",
     "dynamics.daily_vs_aggregate_consistency", {}),
    ("commnet.dynamics", "node_series", "dynamics.node_series", {}),
    ("commnet.powerlaw", "fit_mle_sweep", "powerlaw.fit_mle_sweep", {}),
    ("commnet.powerlaw", "fit_mle", "powerlaw.fit_mle", {}),
    ("commnet.powerlaw", "fit_ols", "powerlaw.fit_ols", {}),
    ("commnet.powerlaw", "histogram", "powerlaw.histogram", {}),
    ("commnet.robustness", "robustness_curve", _curve_span, {}),
    ("commnet.cli", "robustness_curve", _curve_span, {}),
    ("commnet.robustness", "shortest_path", "robustness.bfs", {"counts": _bfs_counts}),
    ("commnet.pipeline", "emit_plot_data", "pipeline.emit_plot_data", {}),
)

# input generation as the `generate` verb reaches it
SETUP_TARGETS = (
    ("commnet.cli", "generate_hub_corpus", "generators.generate_hub_corpus", {}),
    ("commnet.cli", "generate_ba", "generators.generate_ba", {}),
    ("commnet.cli", "write_edge_log", "ingest.write_edge_log", {}),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span and count sink for the wrappers one process installs."""

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[list[float]] = []  # covered-child seconds per open span

    def install(self, targets) -> None:
        for module_name, attr, span, options in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span, f"{module_name}.{attr}",
                                             **options))

    def _wrap(self, fn, span, target, *, rss=False, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            covered = [0.0]
            self._open.append(covered)
            rss_before = _maxrss_mb() if rss else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                stats = self.spans.setdefault(
                    name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0}
                )
                stats["s"] += elapsed
                stats["self_s"] += elapsed - covered[0]
                stats["calls"] += 1
                if rss:
                    stats["rss_growth_mb"] += _maxrss_mb() - rss_before
            if counts is not None:
                try:
                    observed = counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.missing.append(f"{target} (counts)")
                else:
                    for key, value in observed.items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "missing": sorted(set(self.missing))}


def main(argv: list[str]) -> int:
    result_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py RESULT_JSON -- <commnet arguments>")
    start = time.perf_counter()
    import commnet.cli  # noqa: F401  (timed: the import cost every CLI run pays)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(ANALYSIS_TARGETS)
    rc = commnet.cli.main(cli_args)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": import_s, **tracer.as_dict()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
