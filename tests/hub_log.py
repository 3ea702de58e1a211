"""A planted-hub corpus on disk: the pipeline reads only message logs, so
the tests that run it on a generated corpus write that corpus as a log."""
from __future__ import annotations

from pathlib import Path

import commnet as cn


def write_hub_log(path: Path, **params) -> Path:
    """Write the corpus of ``HubCorpusParams(**params)`` to ``path`` in the
    default log format, as ``generate hub-corpus`` does; return ``path``."""
    with open(path, "wb") as fh:
        cn.write_edge_log(cn.generate_hub_corpus(cn.HubCorpusParams(**params)), fh)
    return path
