"""Generate one workload input several times, each into a fresh directory.

Usage: python3 setup_input.py RESULT_JSON TRACE OUTPUT -- <generate args>

Each repetition runs the ``commnet generate`` verb in this process and writes
to ``rep_<i>/OUTPUT`` beside RESULT_JSON; only generation and writing are
timed. Repetitions go on until MIN_REPS are done and MIN_S seconds have been
timed, or MAX_REPS are done. Each repetition's directory is removed when the
next one starts; the last input is kept for the timed verb. With TRACE=1
the generator and writer are wrapped as well. The result file holds
``{"setup_s": [...], "input_sha256": [...], "input": path}`` plus the
tracer's fields; the same seed must give the same digest every time.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

from traced import SETUP_TARGETS, Tracer

MIN_REPS, MAX_REPS, MIN_S = 1, 20, 0.5


def main(argv: list[str]) -> int:
    result_path, trace, output, sep, gen_args = (
        Path(argv[0]), argv[1] == "1", argv[2], argv[3], argv[4:]
    )
    if sep != "--":
        raise SystemExit("usage: setup_input.py RESULT TRACE OUTPUT -- <args>")
    import commnet.cli

    tracer = Tracer()
    if trace:
        tracer.install(SETUP_TARGETS)
    times: list[float] = []
    digests: list[str] = []
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or sum(times) < MIN_S):
        if times:
            shutil.rmtree(rep_dir)
        rep_dir = result_path.parent / f"rep_{len(times)}"
        rep_dir.mkdir()
        target = rep_dir / output
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rc = commnet.cli.main([*gen_args, "--output", str(target)])
        times.append(time.perf_counter() - start)
        if rc != 0:
            return rc
        digests.append(hashlib.sha256(target.read_bytes()).hexdigest())
    result = {"setup_s": times, "input_sha256": digests, "input": str(target),
              **tracer.as_dict()}
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
