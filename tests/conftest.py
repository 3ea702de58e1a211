import io

import pytest
from hypothesis import HealthCheck, settings

import commnet as cn

from . import brute

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def micro_stream():
    stream, report = cn.parse_edge_log(io.BytesIO(brute.log_bytes()))
    assert report.accepted == len(brute.RAW_ROWS)
    return stream


@pytest.fixture(scope="session")
def micro_window(micro_stream):
    window = cn.slice_days(micro_stream)
    assert window.length == brute.N_DAYS
    return window
