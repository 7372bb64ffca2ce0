"""Comb parameter recovery from coincidence histograms.

The histogram peaks sit at (t1 - t2)_n = n / nu_b + (r1 - r2) / c. The
caller supplies the comb: its peak width 1 / (N nu_b) bounds each
center-of-mass refinement, and its spacing nu_b assigns every peak its
integer order n. A weighted straight-line fit of the peak centers
against n then recovers both the mode spacing and the detector path
offset. Because every integer relabeling n -> n + k fits equally well,
the offset is physically defined only modulo one comb period; fits
report it wrapped to the principal interval (-period/2, period/2] along
with the period itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import comb_peak_width
from .detection import CoincidenceHistogram
from .lattice import ModeLattice

_COM_ITERATIONS = 2


@dataclass(frozen=True)
class DetectedPeak:
    """One histogram peak: refined center, its standard error, counts."""

    center: float
    stderr: float
    counts: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")
        if self.counts < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class CombFit:
    """Result of the peak-position regression.

    offset_est lies in the principal interval (-offset_period / 2,
    offset_period / 2]; any integer multiple of offset_period added to
    it fits the same data, which is the comb's inherent ambiguity.
    peak_positions holds (assigned index, center, stderr) per peak.
    """

    nu_b_est: float
    offset_est: float
    offset_stderr: float
    peak_positions: tuple
    residual_rms: float
    n_peaks_used: int
    offset_period: float


def _pyramid(x: np.ndarray, agg, pad: float) -> list[np.ndarray]:
    """Aggregates of x over aligned blocks: entry j of level k covers
    x[j * 2**k : (j + 1) * 2**k], samples past the end counting as pad.
    The last level is a single block; all levels hold about 2 len(x).
    """
    levels = [x]
    while levels[-1].size > 1:
        a = levels[-1]
        if a.size % 2:
            a = np.append(a, pad)
        levels.append(agg(a[0::2], a[1::2]))
    return levels


def _walk_out(x: np.ndarray, peaks: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Lowest sample on each side of each peak, walking out from it (the
    peak included) up to the first sample above thr or the array edge.

    Returns a (2, len(peaks)) array, left walks in row 0. A walk passes
    aligned blocks of 2**k samples whole: it climbs to larger blocks
    until one holds a stopping sample, then descends into that block.
    No Python loop runs over samples or peaks, and memory stays linear
    in len(x).
    """
    n = x.size
    lows = _pyramid(x, np.minimum, np.inf)
    highs = _pyramid(x, np.maximum, -np.inf)
    top = len(lows)
    step = np.array([[-1], [1]])
    # Left walks track their exclusive end, right walks their start.
    edge = np.stack((peaks + 1, peaks))
    low = np.full(edge.shape, np.inf)
    stuck = np.full(edge.shape, top)  # level of the block holding the stop

    def pass_blocks(k, cand):
        """Pass the level-k block beside each edge where cand holds and
        the block has no stopping sample; return where it has one."""
        nonlocal edge, low
        j = np.clip((edge >> k) - (step < 0), 0, lows[k].size - 1)
        blocked = cand & (highs[k][j] > thr)
        passed = cand & ~blocked
        low = np.where(passed, np.minimum(low, lows[k][j]), low)
        edge = np.where(passed, edge + step * (1 << k), edge)
        return blocked

    for k in range(top):
        climbing = (stuck == top) & (edge < n) & ((edge >> k) % 2 == 1)
        stuck = np.where(pass_blocks(k, climbing), k, stuck)
    for k in reversed(range(top)):
        pass_blocks(k, (k < stuck) & (stuck < top))
    return low


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of every strict rise, flat run, strict fall in x."""
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    slope = dx[steps]
    is_peak = (slope[:-1] > 0) & (slope[1:] < 0)
    return (steps[:-1][is_peak] + 1 + steps[1:][is_peak]) // 2


def prominent_peaks(x, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x whose topographic prominence
    reaches a threshold, in index order.

    A peak is a strict rise, a flat run and a strict fall, indexed at
    the run's midpoint (left + right) // 2, never at either edge. Its
    prominence is its height above the higher of the two lowest samples
    found walking out from it, on each side, up to a strictly higher
    sample or the array edge. These are the rules of the common
    signal-processing peak finder, and the tests hold the two to
    identical indices.
    """
    x = np.asarray(x, dtype=float)
    peaks = _local_maxima(x)
    # No peak stands higher above its bases than above the global
    # minimum, so lower peaks can be dropped before walking.
    peaks = peaks[x[peaks] - x.min(initial=np.inf) >= prominence]
    height = x[peaks]
    lowest = _walk_out(x, peaks, height)
    return peaks[prominence <= height - np.maximum(lowest[0], lowest[1])]


def detect_peaks(
    hist: CoincidenceHistogram,
    min_prominence: float,
    peak_width: float,
) -> list[DetectedPeak]:
    """Locate comb peaks and refine each center by center of mass.

    Candidate maxima are the local maxima whose prominence is at least
    min_prominence times the count span (see prominent_peaks). Each
    center is then refined iteratively as the center of mass of the
    bins within peak_width, the comb's 1 / (N nu_b), of the current
    estimate. The center standard error follows from counting
    statistics. The width must span at least 10 bins, else the binning
    is too coarse to refine and an error is raised.
    """
    counts = hist.counts.astype(float)
    span = counts.max() - counts.min()
    if span <= 0:
        raise ValueError("histogram is flat; no peaks found")
    if not peak_width > 0:
        raise ValueError("peak_width must be positive")
    if peak_width < 10 * hist.bin_width:
        raise ValueError(
            "binning too coarse: need at least 10 bins per peak width "
            f"({peak_width / hist.bin_width:.1f} found)"
        )
    idx = prominent_peaks(counts, min_prominence * span)
    if idx.size == 0:
        raise ValueError("no peaks exceed the prominence threshold")
    taus = hist.bin_centers

    peaks = []
    for i in idx:
        center = taus[i]
        for _ in range(_COM_ITERATIONS):
            sel = np.abs(taus - center) <= peak_width
            c_sel = counts[sel]
            total = c_sel.sum()
            if total <= 0:
                break
            center = float(np.sum(c_sel * taus[sel]) / total)
        if total <= 0:
            continue
        var = float(np.sum(c_sel * (taus[sel] - center) ** 2) / total)
        peaks.append(DetectedPeak(center, math.sqrt(var / total), int(total)))
    if not peaks:
        raise ValueError("no peaks with nonzero support found")
    peaks.sort(key=lambda p: p.center)
    # Noisy tops can yield several candidates inside one physical peak;
    # after refinement those converge to overlapping centers. Keep one
    # peak per width so the fit is not double-weighted.
    merged = [peaks[0]]
    for peak in peaks[1:]:
        if peak.center - merged[-1].center <= peak_width:
            if peak.counts > merged[-1].counts:
                merged[-1] = peak
        else:
            merged.append(peak)
    return merged


def _assign_indices(centers: np.ndarray, nu_b: float) -> np.ndarray:
    """Map peak centers to integer comb orders relative to the first."""
    if not nu_b > 0:
        raise ValueError("nu_b must be positive")
    raw = (centers - centers[0]) * nu_b
    ns = np.round(raw)
    drift = np.max(np.abs(raw - ns))
    if drift > 0.25:
        raise ValueError(
            f"index assignment ambiguous: rounding residual {drift:.3f} "
            "exceeds 0.25 of a period"
        )
    return ns.astype(int)


def fit_comb(peaks, nu_b: float) -> CombFit:
    """Weighted least-squares line through (order n, peak center).

    peaks is a sequence of at least two DetectedPeak; nu_b is the
    comb's mode spacing, which assigns each peak its integer order.
    Weights are inverse variances when every stderr is positive;
    otherwise the fit is unweighted and parameter errors are scaled
    from the residuals. The slope gives the comb period (nu_b_est is
    its inverse) and the intercept gives the path offset, reported in
    the principal interval.
    """
    centers = np.array([p.center for p in peaks], dtype=float)
    stderrs = np.array([p.stderr for p in peaks], dtype=float)
    if centers.size < 2:
        raise ValueError("need at least 2 peaks to fit the comb")

    ns = _assign_indices(centers, nu_b)
    if np.all(ns == ns[0]):
        raise ValueError("degenerate peak set: all peaks share one index")

    weighted = bool(np.all(stderrs > 0))
    w = 1.0 / stderrs**2 if weighted else np.ones_like(centers)
    x = ns.astype(float)
    y = centers
    s_w = w.sum()
    s_x = (w * x).sum()
    s_xx = (w * x * x).sum()
    s_y = (w * y).sum()
    s_xy = (w * x * y).sum()
    det = s_w * s_xx - s_x**2
    if det <= 0:
        raise ValueError("degenerate peak set: singular regression")
    slope = (s_w * s_xy - s_x * s_y) / det
    intercept = (s_xx * s_y - s_x * s_xy) / det
    if slope <= 0:
        raise ValueError("fitted comb period is not positive")

    resid = y - (intercept + slope * x)
    residual_rms = float(np.sqrt(np.mean(resid**2)))
    var_intercept = s_xx / det
    if not weighted:
        dof = centers.size - 2
        scale = float((w * resid**2).sum() / dof) if dof > 0 else 0.0
        var_intercept *= scale
    offset_stderr = math.sqrt(var_intercept)

    period = slope
    k = math.ceil(intercept / period - 0.5)
    offset = intercept - k * period

    positions = tuple(
        (int(n), float(c), float(s)) for n, c, s in zip(ns, centers, stderrs)
    )
    return CombFit(
        nu_b_est=1.0 / slope,
        offset_est=float(offset),
        offset_stderr=float(offset_stderr),
        peak_positions=positions,
        residual_rms=residual_rms,
        n_peaks_used=int(centers.size),
        offset_period=float(period),
    )


def resolution_estimate(lattice: ModeLattice, pairs_per_peak: int) -> float:
    """Predicted 1-sigma peak-center uncertainty from counting statistics.

    One detected pair localizes a peak to about its width 1/(N nu_b);
    averaging k pairs shrinks that by sqrt(k). This is a statistics
    extension layered on the comb geometry, not an analytic result of
    the correlation function itself.
    """
    if pairs_per_peak < 1:
        raise ValueError("pairs_per_peak must be at least 1")
    return comb_peak_width(lattice) / math.sqrt(pairs_per_peak)
