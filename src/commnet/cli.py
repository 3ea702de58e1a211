"""Command-line front door.

Verbs: ingest (parse and validate a message log), analyze (full pipeline
on a message log), generate (synthetic corpora and graphs, written to
disk), robustness (standalone removal curves), report (summarize an
existing report.json). A generated corpus is analyzed as any log is:
``generate hub-corpus`` writes it and ``analyze --input`` reads it.

Exit codes: 0 success, 1 standard output closed by its reader (as in
``commnet ingest ... | head``), 2 configuration error, 3 ingest error or an
operating-system error, in one line (a missing input, a directory where a
file belongs or the reverse, a full disk), 4 insufficient data (a log that
leaves no message, or an empty graph), after which no output is written.

The verbs and the pipeline share one implementation of each front-door
step. A flag named for a field of ``PipelineConfig``, ``LogFormatConfig``
or a generator's parameters sets that field, takes its default there and
is checked there: a bad --direction is refused by
``PipelineConfig.validate`` before any input is read. The curve files are
``pipeline.CURVE_FILES``, and logs are read (and a log with no message
refused), removal curves run and outputs staged by functions in
``pipeline``. A file named by --output is written beside its target (whose
directory is made if missing) and renamed over it once complete, so a
failed run leaves any previous file in place.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import (
    ConfigError,
    EmptyHistogramError,
    IngestError,
    InsufficientDataError,
    InsufficientSupportError,
    WindowError,
)
from .generators import BAParams, ERParams, HubCorpusParams, generate_ba, generate_er, generate_hub_corpus
from .ingest import (
    LogFormatConfig,
    read_edge_list,
    validate_malformed_threshold,
    write_edge_list,
    write_edge_log,
)
from .pipeline import (
    CURVE_FILES,
    DEFAULT_STEPS,
    REPORT_FILENAME,
    ROBUSTNESS_FILES,
    PipelineConfig,
    ingest_counts,
    read_log,
    read_messages,
    robustness_stage,
    run,
    staged,
)
from .robustness import REMOVAL_KINDS, RemovalStrategy, validate_steps
from .temporal import UndirectedGraph, undirected_projection

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_INSUFFICIENT = 4


def _date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))  # skips no entry: LogFormatConfig refuses an empty name


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    order = ",".join(LogFormatConfig.columns)
    help_columns = f"column order, a comma-separated permutation of {order}"
    _add_setting(parser, "--columns", LogFormatConfig, type=_names, help=help_columns)
    _add_setting(parser, "--delimiter", LogFormatConfig)
    header = dict(dest="has_header", action="store_true", help="first line is a header row")
    _add_setting(parser, "--header", LogFormatConfig, **header)
    _add_setting(parser, "--malformed-threshold", type=float)


def _add_setting(
    parser: argparse.ArgumentParser, flag: str, owner: type = PipelineConfig, **options
) -> None:
    """Add ``flag``, which sets the field of the dataclass ``owner`` named by
    its dest and takes that field's default, so the two cannot disagree."""
    name = options.setdefault("dest", flag[2:].replace("-", "_"))
    parser.add_argument(flag, default=getattr(owner, name), **options)


def _log_format(args: argparse.Namespace) -> LogFormatConfig:
    return LogFormatConfig(**_given(LogFormatConfig, args))


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[BinaryIO]:
    """A binary file, staged beside ``path``, that replaces it once the block
    completes; if the block raises, ``path`` is left as it was."""
    target = Path(path)
    if target.is_dir():  # staged would replace a directory, not refuse it
        raise IsADirectoryError(f"{path} is a directory")
    with staged(target.parent, [target.name]) as stage, open(stage / target.name, "wb") as fh:
        yield fh


def _given(cls: type, args: argparse.Namespace) -> dict:
    """The parsed value of each flag named for a field of the dataclass ``cls``."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


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
    _add_setting(p_ingest, "--collapse-duplicates", action="store_true")

    p_analyze = sub.add_parser("analyze", help="run the full pipeline")
    p_analyze.add_argument("--input", required=True, help="message log to ingest")
    _add_format_args(p_analyze)
    _add_setting(p_analyze, "--collapse-duplicates", action="store_true")
    _add_setting(p_analyze, "--window-start", type=_date)
    _add_setting(p_analyze, "--window-days", type=int)
    _add_setting(p_analyze, "--tz-offset-seconds", type=int)
    _add_setting(p_analyze, "--direction")
    _add_setting(p_analyze, "--k", type=int)
    _add_setting(p_analyze, "--k-values", type=_int_list, help="comma list, ascending")
    _add_setting(p_analyze, "--cv-threshold", type=float)
    _add_setting(p_analyze, "--fit-target")
    _add_setting(p_analyze, "--fit-xmin", type=int)
    _add_setting(p_analyze, "--robustness-steps", type=_float_list)
    _add_setting(p_analyze, "--seed", type=int)
    p_analyze.add_argument("--output-dir", required=True, type=Path)

    p_generate = sub.add_parser("generate", help="write synthetic data to disk")
    gen_sub = p_generate.add_subparsers(dest="model", required=True)

    g_hub = gen_sub.add_parser("hub-corpus", help="planted-hub message log")
    _add_setting(g_hub, "--nodes", HubCorpusParams, type=int)
    _add_setting(g_hub, "--days", HubCorpusParams, type=int)
    _add_setting(g_hub, "--hubs", HubCorpusParams, type=int)
    _add_setting(g_hub, "--hub-rate", HubCorpusParams, type=float)
    _add_setting(g_hub, "--background-rate", HubCorpusParams, type=float)
    _add_setting(g_hub, "--start-date", HubCorpusParams, type=_date)
    _add_setting(g_hub, "--seed", HubCorpusParams, type=int)
    g_hub.add_argument("--output", required=True)

    g_ba = gen_sub.add_parser("ba", help="preferential-attachment graph edge list")
    g_ba.add_argument("--n", type=int, required=True)
    g_ba.add_argument("--m", type=int, required=True)
    _add_setting(g_ba, "--m0", BAParams, type=int)
    _add_setting(g_ba, "--seed", BAParams, type=int)
    g_ba.add_argument("--output", required=True)

    g_er = gen_sub.add_parser("er", help="uniform random graph edge list")
    g_er.add_argument("--n", type=int, required=True)
    g_er.add_argument("--p", type=float, required=True)
    _add_setting(g_er, "--seed", ERParams, type=int)
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
        "--strategies", default=",".join(REMOVAL_KINDS), help="comma list of strategies"
    )
    p_rob.add_argument("--steps", type=_float_list, default=DEFAULT_STEPS)
    p_rob.add_argument("--static-targeted", action="store_true")
    p_rob.add_argument("--no-path-length", action="store_true")
    p_rob.add_argument("--seed", type=int, default=RemovalStrategy.seed)
    p_rob.add_argument("--output-dir", required=True, type=Path)

    p_report = sub.add_parser("report", help="summarize a report.json")
    p_report.add_argument("report_file")

    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _log_format(args)
    stream, report = read_log(
        args.input,
        cfg,
        malformed_threshold=args.malformed_threshold,
        collapse_duplicates=args.collapse_duplicates,
    )
    if args.output:
        with _replacing(args.output) as out:
            write_edge_log(stream, out, cfg)
    summary = {
        **ingest_counts(report),
        "nodes": len(stream.node_registry),
        "first_timestamp": int(stream.timestamps[0]) if len(stream) else None,
        "last_timestamp": int(stream.timestamps[-1]) if len(stream) else None,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    # each setting as its flag gave it; the two fields below are built here
    settings = _given(PipelineConfig, args)
    settings.update(input_path=Path(args.input), log_format=_log_format(args))
    cfg = PipelineConfig(**settings)
    run(cfg)
    print(f"report written to {cfg.output_dir / REPORT_FILENAME}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "hub-corpus":
        stream = generate_hub_corpus(HubCorpusParams(**_given(HubCorpusParams, args)))
        with _replacing(args.output) as out:
            write_edge_log(stream, out)
        print(f"wrote {len(stream)} messages to {args.output}")
        return EXIT_OK
    if args.model == "ba":
        graph = generate_ba(BAParams(**_given(BAParams, args)))
    else:
        graph = generate_er(ERParams(**_given(ERParams, args)))
    edges = graph.edges
    with _replacing(args.output) as out:
        write_edge_list(edges, out)
    print(f"wrote {len(edges)} edges to {args.output}")
    return EXIT_OK


def _cmd_robustness(args: argparse.Namespace) -> int:
    # every setting is checked before the input is read; a strategy named
    # twice runs once, and an empty entry is skipped
    validate_steps(args.steps)
    kinds = dict.fromkeys(filter(None, map(str.strip, args.strategies.split(","))))
    if not kinds:
        raise ConfigError("--strategies names no strategy")
    adaptive = not args.static_targeted
    strategies = [RemovalStrategy(kind, seed=args.seed, adaptive=adaptive) for kind in kinds]
    validate_malformed_threshold(args.malformed_threshold)
    # for both inputs, so a bad format flag fails before the output is staged
    fmt = _log_format(args)
    # staged before the input is read, as in analyze. A rerun replaces both
    # curve files, so no old curve survives beside a new run of the other
    with staged(args.output_dir, ROBUSTNESS_FILES) as stage:
        if args.edges:
            with open(args.edges, "rb") as fh:
                graph = UndirectedGraph(read_edge_list(fh))
        else:
            stream, _ = read_messages(
                args.input, fmt, malformed_threshold=args.malformed_threshold
            )
            graph = undirected_projection(stream)
            del stream  # the curves read only the projection
        if not len(graph.nodes):
            raise InsufficientDataError("graph has no nodes")
        curves = robustness_stage(stage, graph, strategies, args.steps, not args.no_path_length)
    for kind in curves:
        print(f"wrote {args.output_dir / CURVE_FILES[kind]}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    raw = Path(args.report_file).read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
        raise ConfigError(f"{args.report_file}: not a UTF-8 JSON report") from None
    if not isinstance(data, dict):  # exits as a file that is not JSON does
        raise ConfigError(f"{args.report_file}: top level is not a JSON object")
    try:  # every line is made before any is printed
        lines = list(_report_lines(data))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{args.report_file}: a section has the wrong shape"
            f" ({type(exc).__name__}: {exc})"
        ) from None
    print("\n".join(lines))
    return EXIT_OK


def _report_lines(data: dict) -> Iterator[str]:
    """The summary of a report.json object, a line at a time."""
    yield f"schema version: {data.get('schema_version')}"
    window = data.get("window") or {}
    yield (
        f"window: {window.get('days')} days from {window.get('start')} "
        f"({window.get('non_empty_days')} with messages)"
    )
    corpus = data.get("corpus") or {}
    yield f"corpus: {corpus.get('nodes')} nodes, {corpus.get('messages')} messages"
    correlation = data.get("correlation") or {}
    yield f"median consecutive-day r: {correlation.get('median_r')}"
    consistency = data.get("consistency") or {}
    yield (
        f"daily vs aggregate top-{consistency.get('k')}: "
        f"{consistency.get('count')}/{consistency.get('k')} shared"
    )
    concentration = data.get("concentration") or {}
    share = concentration.get("share")
    if share is not None:
        yield (
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
            yield f"aggregate {method} fit: gamma={fit['gamma']:.3f} ({extras})"
    for kind, section in (data.get("robustness") or {}).items():
        points = section.get("points") or []
        if points:
            last = points[-1]
            yield (
                f"robustness {kind}: giant fraction "
                f"{last['giant_component_fraction']:.3f} at "
                f"{last['fraction_removed']:.0%} removed"
            )


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
        rc = _HANDLERS[args.command](args)
        sys.stdout.flush()  # here, so a reader gone away is caught below
        return rc
    except BrokenPipeError:
        # as the Python signal docs advise: point stdout at devnull, so the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, WindowError) as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except OSError as exc:  # after BrokenPipeError, which is one too
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (InsufficientDataError, EmptyHistogramError, InsufficientSupportError) as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
