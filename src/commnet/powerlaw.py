"""Degree-distribution estimation and power-law fitting.

Builds the empirical pdf and complementary cumulative distribution of an
int64 degree vector (one ``bincount``) and fits the heavy tail two ways:
ordinary least squares on the log-log relationship (mirroring straight-line
inspection of log-log plots) and a discrete maximum-likelihood estimator with
a Kolmogorov-Smirnov distance. The KS sweep over lower cutoffs sorts each
sample once and reads every cutoff's tail count from that sort; ``fit_mle``
is its one-cutoff case (Clauset, Shalizi & Newman 2009, SIAM Rev. 51:661,
sec. 3.3). Only the exponents loop over cutoffs, one tail sum each; the KS
distances of all cutoffs come from one masked (cutoffs x distinct values)
array, built a block of rows at a time under a fixed cell budget.

Zero-degree nodes are excluded from distributions (log 0 is undefined);
``DegreeHistogram.zeros_dropped`` counts them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptyHistogramError, InsufficientSupportError

FIT_TARGETS = ("pdf", "ccdf")  # the curves fit_ols can regress


@dataclass(frozen=True)
class DegreeHistogram:
    """Empirical degree distribution: P(k) and the tail P(K >= k).

    ``support`` lists the degree values with positive mass, ascending.
    ``n`` is the number of samples behind the distribution (0 when built
    from an analytic pdf rather than counts).
    """

    support: tuple[int, ...]
    pdf: tuple[float, ...]
    ccdf: tuple[float, ...]
    n: int
    zeros_dropped: int = 0

    @classmethod
    def from_pdf(
        cls, pdf: Mapping[int, float], *, n: int = 0
    ) -> "DegreeHistogram":
        """Build from an analytic pdf (normalized here); used for exact inputs."""
        support = sorted(k for k, mass in pdf.items() if mass > 0)
        if not support:
            raise EmptyHistogramError("pdf has no positive mass")
        total = math.fsum(pdf[k] for k in support)
        probs = [pdf[k] / total for k in support]
        return cls(tuple(support), tuple(probs), _ccdf(np.array(probs)), n)


def _ccdf(pdf: np.ndarray) -> tuple[float, ...]:
    # accumulate from the tail so small tail masses are not swamped
    return tuple(np.cumsum(pdf[::-1])[::-1].tolist())


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted degree exponent with its method and diagnostics.

    ``r_squared`` is set for OLS fits, ``ks_statistic`` for MLE fits.
    ``n_tail`` counts samples at or above the cutoff (0 when unknown).
    A gamma at or below 1 from an OLS fit signals input whose tail is not a
    normalizable discrete power law; the MLE always lands above 1.
    """

    gamma: float
    xmin: int
    method: str  # "ols-pdf" | "ols-ccdf" | "mle"
    r_squared: float | None
    ks_statistic: float | None
    n_tail: int


def histogram(degrees: np.ndarray) -> DegreeHistogram:
    """Empirical distribution of a non-negative int64 degree vector.

    Memory grows with the largest degree, which a message count bounds by the
    stream length. Raises EmptyHistogramError when no node has a positive
    degree.
    """
    counts = np.bincount(degrees, minlength=1)
    support = np.flatnonzero(counts[1:]) + 1
    if not support.size:
        raise EmptyHistogramError("all degrees are zero")
    n = int(counts[support].sum())
    pdf = counts[support] / n
    return DegreeHistogram(
        tuple(support.tolist()), tuple(pdf.tolist()), _ccdf(pdf), n, int(counts[0])
    )


def fit_ols(h: DegreeHistogram, target: str = "ccdf", xmin: int = 1) -> PowerLawFit:
    """Least-squares line through the log-log distribution tail.

    Parameters
    ----------
    h : DegreeHistogram
    target : str, one of FIT_TARGETS
        Which curve to regress. The ccdf is the default: it is far less noisy
        in the tail. The pdf target mirrors direct log-log plot inspection.
    xmin : int
        Lower cutoff; only support points at or above it enter the fit.

    Returns
    -------
    PowerLawFit
        For a pdf fit gamma is the negated slope; for a ccdf fit the slope
        estimates 1 - gamma. ``r_squared`` measures log-log linearity.

    Raises
    ------
    InsufficientSupportError
        If fewer than 3 distinct support points lie at or above ``xmin``.
    """
    if target not in FIT_TARGETS:
        raise ValueError(f"target must be one of {FIT_TARGETS}")
    series = h.pdf if target == "pdf" else h.ccdf
    pts = [
        (k, y)
        for k, y in zip(h.support, series)
        if k >= xmin and k > 0 and y > 0
    ]
    if len(pts) < 3:
        raise InsufficientSupportError(
            f"need >= 3 support points at k >= {xmin}, have {len(pts)}"
        )
    x = np.log(np.array([k for k, _ in pts], dtype=float))
    y = np.log(np.array([v for _, v in pts], dtype=float))
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    resid = y - (ym + slope * (x - xm))
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    gamma = -slope if target == "pdf" else 1.0 - slope
    tail_mass = math.fsum(p for k, p in zip(h.support, h.pdf) if k >= xmin)
    n_tail = int(round(h.n * tail_mass)) if h.n else 0
    return PowerLawFit(
        gamma=float(gamma),
        xmin=xmin,
        method=f"ols-{target}",
        r_squared=r_squared,
        ks_statistic=None,
        n_tail=n_tail,
    )


def fit_mle(degrees: ArrayLike, xmin: int = 1) -> PowerLawFit:
    """Discrete-approximation maximum-likelihood exponent for the tail k >= xmin.

    Uses the continuity-corrected closed form

        gamma = 1 + n_tail / sum(ln(k_i / (xmin - 0.5)))

    and reports the Kolmogorov-Smirnov distance between the empirical tail and
    the fitted model, where the model tail is
    P(K >= k) = ((k - 0.5) / (xmin - 0.5)) ** (1 - gamma).

    Raises
    ------
    InsufficientSupportError
        If fewer than 10 samples are at or above ``xmin``.
    """
    if xmin < 1:
        raise ValueError("xmin must be >= 1")
    _, (gamma,), (ks,), (n_tail,) = _mle_fits(degrees, [xmin])
    return PowerLawFit(gamma, xmin, "mle", None, ks, n_tail)


def fit_mle_sweep(degrees: ArrayLike) -> PowerLawFit:
    """Fit at every candidate lower cutoff and keep the minimum-KS fit.

    Candidates are the distinct positive values in the sample; cutoffs whose
    tail holds fewer than 10 samples are skipped. Ties in KS go to the
    smaller cutoff.
    """
    xmins, gammas, ks, n_tail = _mle_fits(degrees, None)
    if not xmins:
        raise InsufficientSupportError(
            "no candidate cutoff keeps at least 10 tail samples"
        )
    best = ks.index(min(ks))  # the first minimum, so the smallest such cutoff
    return PowerLawFit(gammas[best], xmins[best], "mle", None, ks[best], n_tail[best])


_KS_CELLS = 1 << 17  # cells of the (cutoffs x distinct values) KS array at a time


def _mle_fits(
    degrees: ArrayLike, xmins: list[int] | None
) -> tuple[list, list[float], list[float], list[int]]:
    """Cutoffs, exponents, KS distances and tail counts of the MLE fits at
    each of ``xmins``, or at every distinct positive value with at least 10
    samples at or above it.

    One sort gives the distinct values and the count at or above each, so
    every cutoff's tail count and KS read that sort. Each gamma sums its
    tail's logs in sample order, so it does not depend on the sort. The KS of
    all cutoffs is one (cutoffs x distinct values) array in which each row
    reads the values at or above its cutoff, built in blocks of rows of at
    most _KS_CELLS cells.
    """
    x = np.asarray(degrees, dtype=np.int64)
    ordered = np.sort(x, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    above = x.size - np.flatnonzero(first)  # samples at or above each value
    if xmins is None:
        xmins = distinct[(distinct >= 1) & (above >= 10)].tolist()
    at = np.searchsorted(distinct, xmins)  # each cutoff's first distinct value
    n_tail = np.append(above, 0)[at].tolist()
    for xmin, count in zip(xmins, n_tail):
        if count < 10:
            raise InsufficientSupportError(
                f"need >= 10 samples at k >= {xmin}, have {count}"
            )
    shifts = np.subtract(xmins, 0.5)
    sample = x.astype(np.float64)
    gammas = []
    for xmin, shift, count in zip(xmins, shifts.tolist(), n_tail):
        tail = sample[x >= xmin]
        np.divide(tail, shift, out=tail)
        gammas.append(1.0 + count / float(np.log(tail, out=tail).sum()))

    ks = _ks_distances(distinct, above, at, shifts, gammas, n_tail)
    return xmins, gammas, ks, n_tail


def _ks_distances(
    distinct: np.ndarray,
    above: np.ndarray,
    at: np.ndarray,
    shifts: np.ndarray,
    gammas: list[float],
    n_tail: list[int],
) -> list[float]:
    """The KS distance of each fit: row i of a (cutoffs x distinct values)
    array compares the model tail with the empirical one at every distinct
    value from ``at[i]`` on. Rows are taken in blocks of at most _KS_CELLS
    cells (or one row, if wider), so a sample with many distinct values
    never holds the square."""
    ks = np.empty(len(at))
    scaled = distinct - 0.5
    rows = max(_KS_CELLS // max(len(distinct), 1), 1)
    for lo in range(0, len(at), rows):
        part = slice(lo, lo + rows)
        left = int(at[part].min())
        reads = np.arange(left, len(distinct)) >= at[part, None]
        model = scaled[left:] / shifts[part, None]
        exponent = 1.0 - np.array(gammas[part])
        np.power(model, exponent[:, None], out=model, where=reads)
        # numpy raises an array to the scalar -1.0 with np.reciprocal, which
        # can differ from pow in the last bit: keep the scalar's result
        for row in np.flatnonzero(exponent == -1.0):
            model[row] = (scaled[left:] / shifts[lo + row]) ** -1.0
        model -= above[left:] / np.array(n_tail[part])[:, None]
        ks[part] = np.abs(model, out=model).max(axis=1, where=reads, initial=0.0)
    return ks.tolist()
