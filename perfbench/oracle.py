"""Reference checks for one run's outputs, computed without the commnet package.

Usage: python3 oracle.py RESULT_JSON KIND INPUT OUTPUT_DIR

KIND is ``log`` (an ``analyze`` run over a sender,recipient,timestamp log) or
``edges`` (a ``robustness`` run over a ``u v`` edge list). Every expected value
comes from numpy/scipy applied to the generated rows. The result file holds
``{"ok", "checks": [{"name", "ok", "expected", "got"}], "versions"}``.
"""
from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# the CLI's default removal fractions; both verbs run with them
DEFAULT_STEPS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
TOP_K = 10
SECONDS_PER_DAY = 86_400


class Checks:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def equal(self, name: str, expected, got) -> None:
        self.items.append({"name": name, "ok": expected == got,
                           "expected": expected, "got": got})

    def close(self, name: str, expected: float, got) -> None:
        ok = isinstance(got, (int, float)) and math.isclose(expected, got, rel_tol=1e-12)
        self.items.append({"name": name, "ok": ok, "expected": expected, "got": got})

    @property
    def ok(self) -> bool:
        return bool(self.items) and all(item["ok"] for item in self.items)


def giant_fraction(u: np.ndarray, v: np.ndarray) -> float:
    """Largest connected component over all endpoint ids, as a share of them."""
    ids, inverse = np.unique(np.concatenate([u, v]), return_inverse=True)
    n = ids.size
    graph = coo_matrix((np.ones(u.size), (inverse[: u.size], inverse[u.size:])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return int(np.bincount(labels).max()) / n


def read_dat(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(x) for x in line.split()] for line in lines[1:] if line]


def check_curves(checks: Checks, out: Path, gc0: float) -> None:
    for kind in ("random", "targeted"):
        rows = read_dat(out / f"robustness_{kind}.dat")
        checks.equal(f"robustness_{kind}.dat rows", len(DEFAULT_STEPS), len(rows))
        checks.equal(f"robustness_{kind}.dat fractions", list(DEFAULT_STEPS),
                     [row[0] for row in rows])
        if rows:
            checks.close(f"robustness_{kind}.dat giant at 0", gc0, rows[0][1])


def check_log(checks: Checks, log: Path, out: Path) -> None:
    rows = np.loadtxt(log, delimiter=",", dtype=np.int64, ndmin=2)
    sender, recipient, stamp = rows[:, 0], rows[:, 1], rows[:, 2]
    keep = sender != recipient
    sender, recipient, stamp = sender[keep], recipient[keep], stamp[keep]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    checks.equal("corpus.messages", int(sender.size), report["corpus"]["messages"])
    days = stamp // SECONDS_PER_DAY
    checks.equal("window.days", int(days.max() - days.min() + 1), report["window"]["days"])

    out_degree = np.bincount(sender)
    expected_top = sorted(out_degree[out_degree > 0].tolist(), reverse=True)[:TOP_K]
    concentration = report["concentration"]
    top = concentration["top"]
    checks.equal("top-10 out-degrees", expected_top, [entry["degree"] for entry in top])
    labels = report["labels"]
    checks.equal(
        "top-10 labels carry their degrees",
        [entry["degree"] for entry in top],
        [int(out_degree[int(labels[str(entry["node"])])]) for entry in top],
    )
    checks.close("top-10 share", sum(expected_top) / sender.size, concentration["share"])

    gc0 = giant_fraction(sender, recipient)
    for kind in ("random", "targeted"):
        first = report["robustness"][kind]["points"][0]
        checks.close(f"report {kind} giant at 0", gc0, first["giant_component_fraction"])
    check_curves(checks, out, gc0)


def check_edges(checks: Checks, edges: Path, out: Path) -> None:
    pairs = np.loadtxt(edges, dtype=np.int64, ndmin=2)
    check_curves(checks, out, giant_fraction(pairs[:, 0], pairs[:, 1]))


def main(argv: list[str]) -> int:
    result_path, kind, source, out = Path(argv[0]), argv[1], Path(argv[2]), Path(argv[3])
    checks = Checks()
    try:
        (check_log if kind == "log" else check_edges)(checks, source, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        checks.items.append({"name": "outputs readable", "ok": False,
                             "expected": None, "got": repr(exc)})
    result = {
        "ok": checks.ok,
        "checks": checks.items,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
