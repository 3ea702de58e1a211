"""The discrete MLE fits as they stood before the blocked KS sweep.

A frozen copy, kept as the oracle for the differential tests in
test_powerlaw.py: the production fits must be equal, bit for bit, on every
sample. Each cutoff here fits its own tail and reads its KS off the one sort
in a loop, raising the model to a Python float exponent.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from commnet.errors import InsufficientSupportError
from commnet.powerlaw import PowerLawFit


def fit_mle(degrees: ArrayLike, xmin: int = 1) -> PowerLawFit:
    if xmin < 1:
        raise ValueError("xmin must be >= 1")
    return _mle_fits(degrees, [xmin])[0]


def fit_mle_sweep(degrees: ArrayLike) -> PowerLawFit:
    fits = _mle_fits(degrees, None)
    if not fits:
        raise InsufficientSupportError(
            "no candidate cutoff keeps at least 10 tail samples"
        )
    return min(fits, key=lambda fit: fit.ks_statistic)


def _mle_fits(degrees: ArrayLike, xmins: list[int] | None) -> list[PowerLawFit]:
    x = np.asarray(degrees, dtype=np.int64)
    ordered = np.sort(x, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    above = x.size - np.flatnonzero(first)  # samples at or above each value
    if xmins is None:
        xmins = distinct[(distinct >= 1) & (above >= 10)].tolist()
    fits = []
    for xmin in xmins:
        # summed in sample order, so gamma does not depend on the sort
        tail = x[x >= xmin]
        if tail.size < 10:
            raise InsufficientSupportError(
                f"need >= 10 samples at k >= {xmin}, have {tail.size}"
            )
        shift = xmin - 0.5
        gamma = 1.0 + tail.size / float(np.log(tail / shift).sum())
        i = int(np.searchsorted(distinct, xmin))
        model = ((distinct[i:] - 0.5) / shift) ** (1.0 - gamma)
        ks = float(np.abs(above[i:] / tail.size - model).max())
        fits.append(PowerLawFit(gamma, xmin, "mle", None, ks, int(tail.size)))
    return fits
