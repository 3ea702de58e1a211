"""commnet benchmark: seeded inputs, the real CLI verb in fresh processes, checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

For S seconds a run repeats the timed verb on the workload's input, each time
in a fresh process (``wall_s``, ``peak_rss_mb``). About 15% of that
time, spread over the run, goes to generating the input from the seed again,
each time into a fresh directory (``setup_s``). Metrics are medians over the
repetitions.
Every generated input and every output must hash identically, and one output
is checked against an independent numpy/scipy oracle. ``--trace 1`` also
runs the verb twice under the outside-in tracer (traced.py) and reports the
per-layer metrics; their counts must repeat exactly. The last stdout line is
the JSON result; the line before it, prefixed ``record``, holds what helps
triage a noisy run.

This process imports only the standard library: a child's peak RSS, read from
its own wait4 rusage, starts at the peak RSS of the process that spawned it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0  # a run must exit within 180 s, result included
ORACLE_RESERVE_S = 10.0
TRACED_REPS = 2
SETUP_SHARE = 0.15  # of the measured window, spent generating inputs
# what the installed `commnet` console script does
CLI = "import sys; from commnet.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    verb: str  # "analyze" reads a message log, "robustness" an edge list
    generate: tuple[str, ...]  # `commnet generate` arguments at benchmark size
    smoke: tuple[str, ...]  # the same at self-test size

    @property
    def input_name(self) -> str:
        return "input.log" if self.verb == "analyze" else "input.edges"

    def verb_args(self, source: Path, out: Path) -> list[str]:
        flag = "--input" if self.verb == "analyze" else "--edges"
        return [self.verb, flag, str(source), "--output-dir", str(out)]

    @property
    def outputs(self) -> tuple[str, ...]:
        curves = ("robustness_random.dat", "robustness_targeted.dat")
        return ("report.json", *curves) if self.verb == "analyze" else curves


def _hub(nodes, days, hubs, hub_rate, background_rate) -> tuple[str, ...]:
    return ("generate", "hub-corpus", "--nodes", str(nodes), "--days", str(days),
            "--hubs", str(hubs), "--hub-rate", str(hub_rate),
            "--background-rate", str(background_rate))


# Why each workload exists, and what it should and should not move, is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "dense151-analyze": Workload("analyze", _hub(151, 183, 10, 100, 15),
                                 _hub(40, 12, 4, 20, 4)),
    "ba3k-robustness": Workload("robustness", ("generate", "ba", "--n", "3000", "--m", "3"),
                                ("generate", "ba", "--n", "300", "--m", "3")),
}

COUNT_SUFFIXES = (".calls", ".sources", ".rows", "_edges", ".edge_visits",
                  ".files_written", ".days")


class BenchError(Exception):
    """The benchmark could not produce a result (missing sources, failed set-up)."""


@dataclass
class Rep:
    """One timed run of the verb on the run's generated input."""

    out: Path
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    digest: str | None = None
    ok: bool = False


@dataclass
class Runner:
    """Spawns children inside one work directory under one deadline."""

    work: Path
    deadline: float
    env: dict

    def spawn(self, argv: list[str], log_name: str) -> tuple[int, float, object]:
        """Run argv to completion; return (exit code, wall seconds, rusage)."""
        log = os.open(self.work / log_name, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        null = os.open(os.devnull, os.O_RDONLY)
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, null, 0),
                                               (os.POSIX_SPAWN_DUP2, log, 1),
                                               (os.POSIX_SPAWN_DUP2, log, 2)])
            status, usage = _wait(pid, self.deadline - time.perf_counter())
            wall = time.perf_counter() - start
        finally:
            os.close(log)
            os.close(null)
        return os.waitstatus_to_exitcode(status), wall, usage

    def python_json(self, argv: list[str], result: Path, log_name: str) -> dict:
        rc, _, _ = self.spawn(argv, log_name)
        if rc != 0 or not result.exists():
            raise BenchError(f"{argv[0]} exited {rc}; see {self.work / log_name}:\n"
                             + _tail(self.work / log_name))
        return json.loads(result.read_text(encoding="utf-8"))


def _wait(pid: int, timeout: float):
    """wait4 for pid, killing it if it outlives the timeout."""

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        kill()
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _merge_setup(total: dict, part: dict) -> None:
    for key in ("setup_s", "input_sha256", "missing"):
        total[key] += part[key]
    for name, stats in part["spans"].items():
        into = total["spans"].setdefault(name, {"s": 0.0, "calls": 0})
        into["s"] += stats["s"]
        into["calls"] += stats["calls"]


def output_digest(out: Path) -> tuple[str, dict[str, str]]:
    """SHA-256 of report.json and every .dat file, per file and combined."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and (path.name == "report.json" or path.suffix == ".dat"):
            files[path.relative_to(out).as_posix()] = _sha256(path)
    combined = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    return combined, files


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tells a slow host from a slow build."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traces: list[dict], setup: dict, reps: list[Rep],
                  traced_walls: list[float], scans: list[tuple[int, int]]) -> dict:
    """Per-layer metrics from two traced runs (times: their mean; counts: the first)."""

    def span(name: str, key: str = "s") -> float:
        return _median([t["spans"].get(name, {}).get(key, 0.0) for t in traces])

    def calls(name: str) -> int:
        return int(traces[0]["spans"].get(name, {}).get("calls", 0))

    def count(name: str) -> int:
        return int(traces[0]["counts"].get(name, 0))

    def setup_s(name: str) -> float:
        stats = setup.get("spans", {}).get(name)
        return stats["s"] / stats["calls"] if stats else 0.0

    degree_calls = calls("centrality.degree")
    curves = ("robustness.curve.random", "robustness.curve.targeted")
    metrics = {
        "ingest.parse_edge_log.s": (span("ingest.parse_edge_log"), "s"),
        "ingest.parse_edge_log.rss_growth_mb":
            (span("ingest.parse_edge_log", "rss_growth_mb"), "MB"),
        "ingest.rows": (count("ingest.rows"), "count"),
        "temporal.build_snapshots.s": (span("temporal.build_snapshots"), "s"),
        "temporal.build_snapshots.rss_growth_mb":
            (span("temporal.build_snapshots", "rss_growth_mb"), "MB"),
        "temporal.aggregate.s": (span("temporal.aggregate"), "s"),
        "temporal.undirected_projection.s": (span("temporal.undirected_projection"), "s"),
        "temporal.days": (count("temporal.days"), "count"),
        "temporal.day_edges": (count("temporal.day_edges"), "count"),
        "temporal.agg_edges": (count("temporal.agg_edges"), "count"),
        "centrality.degree.s": (span("centrality.degree"), "s"),
        "centrality.degree.calls": (degree_calls, "count"),
        # one degree map per day plus the aggregate is all the report needs
        "centrality.degree.useful_ratio":
            ((count("temporal.days") + 1) / degree_calls if degree_calls else 0.0, "ratio"),
        "centrality.top_k.calls": (calls("centrality.top_k"), "count"),
        "dynamics.consecutive_day_correlation.s":
            (span("dynamics.consecutive_day_correlation"), "s"),
        "dynamics.overlap_vs_k.s": (span("dynamics.overlap_vs_k"), "s"),
        "dynamics.daily_vs_aggregate_consistency.s":
            (span("dynamics.daily_vs_aggregate_consistency"), "s"),
        "dynamics.node_series.s": (span("dynamics.node_series"), "s"),
        "dynamics.node_series.calls": (calls("dynamics.node_series"), "count"),
        "powerlaw.fit_mle_sweep.s": (span("powerlaw.fit_mle_sweep"), "s"),
        "powerlaw.fit_mle.calls": (calls("powerlaw.fit_mle"), "count"),
        "powerlaw.fit_ols.s": (span("powerlaw.fit_ols"), "s"),
        "powerlaw.histogram.calls": (calls("powerlaw.histogram"), "count"),
        "robustness.curve.random.s": (span(curves[0]), "s"),
        "robustness.curve.targeted.s": (span(curves[1]), "s"),
        "robustness.curve.self_s": (sum(span(c, "self_s") for c in curves), "s"),
        "robustness.bfs.s": (span("robustness.bfs"), "s"),
        "robustness.bfs.calls": (calls("robustness.bfs"), "count"),
        "robustness.bfs.sources": (count("robustness.bfs.sources"), "count"),
        "robustness.bfs.edge_visits": (count("robustness.bfs.edge_visits"), "count"),
        "pipeline.run.self_s": (span("pipeline.run", "self_s"), "s"),
        "pipeline.emit_plot_data.s": (span("pipeline.emit_plot_data"), "s"),
        "pipeline.files_written": (scans[0][0], "count"),
        "pipeline.bytes_written": (scans[0][1], "bytes"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "generators.generate_hub_corpus.s": (setup_s("generators.generate_hub_corpus"), "s"),
        "generators.generate_ba.s": (setup_s("generators.generate_ba"), "s"),
        "ingest.write_edge_log.s": (setup_s("ingest.write_edge_log"), "s"),
        "process.import_s": (_median([t["import_s"] for t in traces]), "s"),
        "process.cpu_s": (_median([r.cpu_s for r in reps]), "s"),
        "trace.overhead_s": (_median(traced_walls) - _median([r.wall_s for r in reps]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def exact_counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items() if name.endswith(COUNT_SUFFIXES)}


def scan_outputs(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    if not (SRC / "commnet" / "cli.py").is_file():
        raise BenchError(f"commnet sources not found under {SRC}")
    wl = WORKLOADS[name]
    started = time.perf_counter()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "smoke": smoke, "calibration_before_s": calibrate()}
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = dict(os.environ, TMPDIR=str(work),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runner = Runner(work, started + RUN_LIMIT_S, env)
    try:
        generate = [*(wl.smoke if smoke else wl.generate), "--seed", str(seed)]
        setup = {"setup_s": [], "input_sha256": [], "spans": {}, "missing": []}
        setup_busy = 0.0
        # one input path for every repetition: report.json echoes it
        source = work / wl.input_name
        reps: list[Rep] = []
        measure_start = time.perf_counter()
        while True:
            # set-up gets a fixed share of the window, spread over it, so that it
            # samples the host's speed the way the verb does
            if setup_busy <= SETUP_SHARE * (time.perf_counter() - measure_start):
                setup_start = time.perf_counter()
                setup_dir = work / f"setup_{len(reps)}"
                setup_dir.mkdir()
                generated = runner.python_json(
                    [str(BENCH_DIR / "setup_input.py"), str(setup_dir / "setup.json"),
                     "1" if trace else "0", wl.input_name, "--", *generate],
                    setup_dir / "setup.json", f"setup_{len(reps)}.log")
                _merge_setup(setup, generated)
                os.replace(generated["input"], source)
                shutil.rmtree(setup_dir)
                setup_busy += time.perf_counter() - setup_start
            out = work / f"out_{len(reps)}"
            rc, wall, usage = runner.spawn(["-c", CLI, *wl.verb_args(source, out)],
                                           f"verb_{len(reps)}.log")
            rep = Rep(out, rc, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)
            if rc == 0 and all((out / f).is_file() for f in wl.outputs):
                rep.digest, files = output_digest(out)
                record.setdefault("output_sha256", files)
            reps.append(rep)
            now, typical = time.perf_counter(), _median([r.wall_s for r in reps])
            reserve = ORACLE_RESERVE_S + (TRACED_REPS * 1.5 * typical if trace else 0.0)
            # start another repetition only if most of it falls inside the window
            if (now + typical / 2 - measure_start >= seconds
                    or now + 1.5 * typical + reserve > runner.deadline):
                break

        inputs_agree = len(set(setup["input_sha256"])) == 1
        if not inputs_agree:
            print("set-up gave different inputs for one seed", file=sys.stderr)
        rows = count_lines(source)
        reference = next((r for r in reps if r.digest), None)
        oracle = {"ok": False, "checks": [], "versions": {}}
        if reference is not None:
            oracle_json = work / "oracle.json"
            oracle = runner.python_json(
                [str(BENCH_DIR / "oracle.py"), str(oracle_json),
                 "log" if wl.verb == "analyze" else "edges", str(source), str(reference.out)],
                oracle_json, "oracle.log")
        for rep in reps:
            rep.ok = (oracle["ok"] and inputs_agree and rep.digest is not None
                      and rep.digest == reference.digest)
        correct = oracle["ok"]

        metrics: dict
        traced_ok = []
        if trace:
            traces, traced_walls, scans = [], [], []
            for i in range(TRACED_REPS):
                out, result_json = work / f"traced_{i}", work / f"traced_{i}.json"
                rc, wall, _ = runner.spawn(
                    [str(BENCH_DIR / "traced.py"), str(result_json), "--",
                     *wl.verb_args(source, out)], f"traced_{i}.log")
                ok = rc == 0 and result_json.exists()
                ok = ok and reference is not None and output_digest(out)[0] == reference.digest
                traced_ok.append(ok)
                if result_json.exists():
                    traces.append(json.loads(result_json.read_text(encoding="utf-8")))
                    traced_walls.append(wall)
                    scans.append(scan_outputs(out))
            if len(traces) < TRACED_REPS:
                raise BenchError("traced run failed:\n" + _tail(work / "traced_0.log"))
            runs = [layer_metrics([t], setup, reps, traced_walls, [s])
                    for t, s in zip(traces, scans)]
            first, second = exact_counts(runs[0]), exact_counts(runs[1])
            if first != second:
                differ = sorted(k for k in first if first[k] != second.get(k))
                print(f"count metrics differ between traced runs: {differ}", file=sys.stderr)
                correct = False
            metrics = layer_metrics(traces, setup, reps, traced_walls, scans)
            record["missing"] = sorted({m for t in [*traces, setup] for m in t["missing"]})
            if record["missing"]:
                print(f"missing trace targets: {record['missing']}", file=sys.stderr)
        else:
            wall_s = _median([r.wall_s for r in reps])
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "rows_per_s": {"value": rows / wall_s, "unit": "rows/s"},
                "peak_rss_mb": {"value": _median([r.rss_mb for r in reps]), "unit": "MB"},
                "setup_s": {"value": _median(setup["setup_s"]), "unit": "s"},
            }

        attempted = len(reps) + len(traced_ok)
        failed = sum(not r.ok for r in reps) + sum(not ok for ok in traced_ok)
        record.update(
            rows=rows,
            wall_s=[r.wall_s for r in reps],
            rss_mb=[r.rss_mb for r in reps],
            cpu_s=[r.cpu_s for r in reps],
            exit_codes=[r.rc for r in reps],
            input_sha256=setup["input_sha256"],
            setup_s=setup["setup_s"],
            error_rate=failed / attempted,
            oracle_checks=oracle["checks"],
            output_digest=reference.digest if reference else None,
            versions=oracle["versions"],
            git_commit=git_commit(),
            nproc=len(os.sched_getaffinity(0)),
            calibration_after_s=calibrate(),
        )
        if not oracle["ok"]:
            bad = [c["name"] for c in oracle["checks"] if not c["ok"]]
            print(f"output checks failed: {bad}", file=sys.stderr)
        correct = correct and failed == 0
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass


def _print_summary(result: dict, record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} reps={len(record['wall_s'])} "
          f"correct={result['correct']} error_rate={record['error_rate']:.3f} (ratio)")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")


def self_test() -> int:
    """Every workload at smoke size, untraced and traced, with all checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {False: [m["name"] for m in spec["end_to_end"]],
                True: [m["name"] for m in spec["per_layer"]]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from run.py", file=sys.stderr)
        return 1
    failures = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(name, seed=1, seconds=3, trace=trace, smoke=True)
            _print_summary(result, record)
            problems = []
            if not result["correct"] or result["failed"]:
                problems.append("incorrect")
            if sorted(result["metrics"]) != sorted(expected[trace]):
                problems.append("metric names differ from BENCHMARK.json")
            if record.get("missing"):
                problems.append(f"missing {record['missing']}")
            if problems:
                failures += 1
                print(f"FAIL {name} trace={int(trace)}: {problems}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and check everything")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be >= 1")
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_summary(result, record)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
