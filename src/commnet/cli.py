"""Command-line front door.

Verbs: ingest (parse and validate a message log), analyze (full pipeline),
generate (synthetic corpora and graphs), robustness (standalone removal
curves), report (summarize an existing report.json).

Exit codes: 0 success, 2 configuration error, 3 ingest error, 4 insufficient
data (for example an empty observation window). The default output directory
can be set with the COMMNET_OUTPUT_DIR environment variable.
"""
from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import (
    ConfigError,
    EmptyHistogramError,
    IngestError,
    InsufficientDataError,
    InsufficientSupportError,
    WindowError,
)
from .generators import BAParams, ERParams, HubCorpusParams, generate_ba, generate_er, generate_hub_corpus
from .ingest import LogFormatConfig, parse_edge_log, write_edge_log
from .pipeline import ROBUSTNESS_KINDS, PipelineConfig, run, write_robustness_curve
from .robustness import RemovalStrategy, robustness_curve
from .temporal import UndirectedGraph, aggregate, build_snapshots, undirected_projection

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_INSUFFICIENT = 4

# conventional settings for the Enron email corpus: 131-day window, daily top-10
ENRON_RECIPE = {
    "window_days": 131,
    "k": 10,
    "k_values": "5,10,20",
    "direction": "out",
}


def _date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--columns",
        default="sender,recipient,timestamp",
        help="column order, comma-separated permutation of sender,recipient,timestamp",
    )
    parser.add_argument(
        "--timestamp-format", choices=("unix", "iso8601"), default="unix"
    )
    parser.add_argument("--delimiter", default=",")
    parser.add_argument(
        "--header", action="store_true", help="first line is a header row"
    )
    parser.add_argument("--collapse-duplicates", action="store_true")
    parser.add_argument("--malformed-threshold", type=float, default=0.01)


def _log_format(args: argparse.Namespace) -> LogFormatConfig:
    columns = tuple(args.columns.split(","))
    if len(columns) != 3:
        raise ConfigError("--columns needs exactly 3 names")
    return LogFormatConfig(
        columns=columns,  # type: ignore[arg-type]
        timestamp_format=args.timestamp_format,
        delimiter=args.delimiter,
        has_header=args.header,
    )


def _output_dir(args: argparse.Namespace) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    env = os.environ.get("COMMNET_OUTPUT_DIR")
    if env:
        return Path(env)
    raise ConfigError("--output-dir is required (or set COMMNET_OUTPUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commnet",
        description="Communication-network prominence and robustness analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse and validate a message log")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument(
        "--output", help="write the normalized (sorted, deduped) log here"
    )
    _add_format_args(p_ingest)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline")
    src = p_analyze.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="message log to ingest")
    src.add_argument(
        "--synthetic-hubs",
        action="store_true",
        help="analyze a generated planted-hub corpus instead of a log",
    )
    _add_format_args(p_analyze)
    p_analyze.add_argument("--nodes", type=int, default=151)
    p_analyze.add_argument("--days", type=int, default=131)
    p_analyze.add_argument("--hubs", type=int, default=10)
    p_analyze.add_argument("--hub-rate", type=float, default=40.0)
    p_analyze.add_argument("--background-rate", type=float, default=1.0)
    p_analyze.add_argument("--window-start", type=_date, default=None)
    p_analyze.add_argument("--window-days", type=int, default=None)
    p_analyze.add_argument("--tz-offset-seconds", type=int, default=0)
    p_analyze.add_argument("--direction", choices=("out", "in", "total"), default=None)
    p_analyze.add_argument("--k", type=int, default=None)
    p_analyze.add_argument("--k-values", default=None, help="comma list, ascending")
    p_analyze.add_argument("--cv-threshold", type=float, default=1.0)
    p_analyze.add_argument("--fit-target", choices=("pdf", "ccdf"), default="ccdf")
    p_analyze.add_argument("--fit-xmin", type=int, default=1)
    p_analyze.add_argument(
        "--robustness-steps", type=_float_list, default=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
    )
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--output-dir", default=None)
    p_analyze.add_argument(
        "--enron-recipe",
        action="store_true",
        help="preset for the Enron email corpus: 131-day window, daily top-10 "
        "out-degree analysis (explicit flags still win)",
    )

    p_generate = sub.add_parser("generate", help="write synthetic data to disk")
    gen_sub = p_generate.add_subparsers(dest="model", required=True)

    g_hub = gen_sub.add_parser("hub-corpus", help="planted-hub message log")
    g_hub.add_argument("--nodes", type=int, default=151)
    g_hub.add_argument("--days", type=int, default=131)
    g_hub.add_argument("--hubs", type=int, default=10)
    g_hub.add_argument("--hub-rate", type=float, default=40.0)
    g_hub.add_argument("--background-rate", type=float, default=1.0)
    g_hub.add_argument("--start-date", type=_date, default=dt.date(2000, 1, 1))
    g_hub.add_argument("--seed", type=int, default=0)
    g_hub.add_argument("--output", required=True)

    g_ba = gen_sub.add_parser("ba", help="preferential-attachment graph edge list")
    g_ba.add_argument("--n", type=int, required=True)
    g_ba.add_argument("--m", type=int, required=True)
    g_ba.add_argument("--m0", type=int, default=None)
    g_ba.add_argument("--seed", type=int, default=0)
    g_ba.add_argument("--output", required=True)

    g_er = gen_sub.add_parser("er", help="uniform random graph edge list")
    g_er.add_argument("--n", type=int, required=True)
    g_er.add_argument("--p", type=float, required=True)
    g_er.add_argument("--seed", type=int, default=0)
    g_er.add_argument("--output", required=True)

    p_rob = sub.add_parser(
        "robustness", help="removal curves for a graph or a message log"
    )
    rob_src = p_rob.add_mutually_exclusive_group(required=True)
    rob_src.add_argument("--edges", help="edge-list file, one 'u v' pair per line")
    rob_src.add_argument(
        "--input", help="message log; curves run on its aggregate projection"
    )
    _add_format_args(p_rob)
    p_rob.add_argument(
        "--strategies", default="random,targeted", help="comma list of strategies"
    )
    p_rob.add_argument(
        "--steps", type=_float_list, default=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
    )
    p_rob.add_argument("--static-targeted", action="store_true")
    p_rob.add_argument("--no-path-length", action="store_true")
    p_rob.add_argument("--seed", type=int, default=0)
    p_rob.add_argument("--output-dir", default=None)

    p_report = sub.add_parser("report", help="summarize a report.json")
    p_report.add_argument("report_file")

    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _log_format(args)
    with open(args.input, "rb") as fh:
        stream, report = parse_edge_log(
            fh,
            cfg,
            malformed_threshold=args.malformed_threshold,
            collapse_duplicates=args.collapse_duplicates,
        )
    if args.output:
        with open(args.output, "wb") as out:
            write_edge_log(stream, out, cfg)
    summary = {
        "rows_read": report.rows_read,
        "accepted": report.accepted,
        "self_loops_dropped": report.self_loops_dropped,
        "malformed": report.malformed,
        "duplicates_collapsed": report.duplicates_collapsed,
        "nodes": len(stream.node_registry),
        "first_timestamp": stream.edges[0].timestamp if stream.edges else None,
        "last_timestamp": stream.edges[-1].timestamp if stream.edges else None,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.enron_recipe:
        if args.window_days is None:
            args.window_days = ENRON_RECIPE["window_days"]
        if args.k is None:
            args.k = ENRON_RECIPE["k"]
        if args.k_values is None:
            args.k_values = ENRON_RECIPE["k_values"]
        if args.direction is None:
            args.direction = ENRON_RECIPE["direction"]
    cfg = PipelineConfig(
        output_dir=_output_dir(args),
        input_path=Path(args.input) if args.input else None,
        log_format=_log_format(args),
        malformed_threshold=args.malformed_threshold,
        collapse_duplicates=args.collapse_duplicates,
        hub_params=HubCorpusParams(
            nodes=args.nodes,
            days=args.days,
            hubs=args.hubs,
            hub_rate=args.hub_rate,
            background_rate=args.background_rate,
            seed=args.seed,
        )
        if args.synthetic_hubs
        else None,
        window_start=args.window_start,
        window_days=args.window_days,
        tz_offset_seconds=args.tz_offset_seconds,
        direction=args.direction or "out",
        k=args.k if args.k is not None else 10,
        k_values=_int_list(args.k_values) if args.k_values else (5, 10, 20),
        cv_threshold=args.cv_threshold,
        fit_target=args.fit_target,
        fit_xmin=args.fit_xmin,
        robustness_steps=tuple(args.robustness_steps),
        seed=args.seed,
    )
    report = run(cfg)
    if report.sections_empty:
        print("analysis window is empty; wrote an empty report", file=sys.stderr)
        return EXIT_INSUFFICIENT
    print(f"report written to {cfg.output_dir / 'report.json'}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "hub-corpus":
        stream = generate_hub_corpus(
            HubCorpusParams(
                nodes=args.nodes,
                days=args.days,
                hubs=args.hubs,
                hub_rate=args.hub_rate,
                background_rate=args.background_rate,
                seed=args.seed,
                start_date=args.start_date,
            )
        )
        with open(args.output, "wb") as out:
            write_edge_log(stream, out)
        print(f"wrote {len(stream)} messages to {args.output}")
        return EXIT_OK
    if args.model == "ba":
        graph = generate_ba(BAParams(n=args.n, m=args.m, m0=args.m0, seed=args.seed))
    else:
        graph = generate_er(ERParams(n=args.n, p=args.p, seed=args.seed))
    lines = [f"{u} {v}" for u, v in sorted(graph.edges)]
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(graph.edges)} edges to {args.output}")
    return EXIT_OK


def _read_edge_list(path: str) -> UndirectedGraph:
    edges = []
    for line_no, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise IngestError(f"line {line_no}: expected 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return UndirectedGraph(edges)


def _cmd_robustness(args: argparse.Namespace) -> int:
    if args.edges:
        graph = _read_edge_list(args.edges)
    else:
        cfg = _log_format(args)
        with open(args.input, "rb") as fh:
            stream, _ = parse_edge_log(
                fh, cfg, malformed_threshold=args.malformed_threshold
            )
        snapshots = build_snapshots(stream)
        if not snapshots:
            raise InsufficientDataError("message log is empty")
        graph = undirected_projection(aggregate(snapshots))
    if not graph.nodes:
        raise InsufficientDataError("graph has no nodes")
    out_dir = _output_dir(args)
    for kind in (s.strip() for s in args.strategies.split(",")):
        if kind not in ROBUSTNESS_KINDS:
            raise ConfigError(f"unknown strategy {kind!r}")
        strategy = RemovalStrategy(
            kind, seed=args.seed, adaptive=not args.static_targeted
        )
        curve = robustness_curve(
            graph,
            strategy,
            args.steps,
            compute_path_length=not args.no_path_length,
        )
        path = write_robustness_curve(out_dir, kind, map(asdict, curve.points))
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.report_file).read_text(encoding="utf-8"))
    print(f"schema version: {data.get('schema_version')}")
    window = data.get("window") or {}
    print(
        f"window: {window.get('days')} days from {window.get('start')} "
        f"({window.get('non_empty_days')} with messages)"
    )
    corpus = data.get("corpus") or {}
    print(f"corpus: {corpus.get('nodes')} nodes, {corpus.get('messages')} messages")
    if data.get("sections_empty"):
        print("all analysis sections are empty")
        return EXIT_OK
    correlation = data.get("correlation") or {}
    print(f"median consecutive-day r: {correlation.get('median_r')}")
    consistency = data.get("consistency") or {}
    print(
        f"daily vs aggregate top-{consistency.get('k')}: "
        f"{consistency.get('count')}/{consistency.get('k')} shared"
    )
    concentration = data.get("concentration") or {}
    share = concentration.get("share")
    if share is not None:
        print(
            f"top-{concentration.get('k')} degree share: {share:.3f} "
            f"({concentration.get('direction')}-degree)"
        )
    agg_fit = data.get("aggregate_fit") or {}
    for method in ("ols", "mle"):
        fit = agg_fit.get(method)
        if fit:
            extras = (
                f"r^2={fit['r_squared']:.4f}"
                if method == "ols"
                else f"ks={fit['ks_statistic']:.4f}, xmin={fit['xmin']}"
            )
            print(f"aggregate {method} fit: gamma={fit['gamma']:.3f} ({extras})")
    for kind, section in (data.get("robustness") or {}).items():
        points = section.get("points") or []
        if points:
            last = points[-1]
            print(
                f"robustness {kind}: giant fraction "
                f"{last['giant_component_fraction']:.3f} at "
                f"{last['fraction_removed']:.0%} removed"
            )
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "robustness": _cmd_robustness,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, WindowError, FileNotFoundError) as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (InsufficientDataError, EmptyHistogramError, InsufficientSupportError) as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
