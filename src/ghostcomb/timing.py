"""Comb parameter recovery from coincidence histograms.

The histogram peaks sit at (t1 - t2)_n = n / nu_b + (r1 - r2) / c, so a
weighted straight-line fit of fitted peak centers against their integer
order n recovers both the mode spacing and the detector path offset.
Because every integer relabeling n -> n + k fits equally well, the
offset is physically defined only modulo one comb period; fits report
it wrapped to the principal interval (-period/2, period/2] along with
the period itself.
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


def _walk_out(x: np.ndarray, peaks: np.ndarray, thr: np.ndarray, stop_above: bool):
    """Walk left and right from each peak, the peak included, up to the
    first sample above thr (stop_above) or at or below thr (otherwise).

    Returns two (2, len(peaks)) arrays, left walks in row 0: where each
    walk stops (-1 or len(x) when it runs off the array) and the minimum
    of the samples it passed. A walk passes aligned blocks of 2**k
    samples whole: it climbs to larger blocks until one holds a
    stopping sample, then descends into that block. No Python loop runs
    over samples or peaks, and memory stays linear in len(x).
    """
    n = x.size
    lows = _pyramid(x, np.minimum, np.inf)
    tests = _pyramid(x, np.maximum, -np.inf) if stop_above else lows
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
        block = tests[k][j]
        blocked = cand & ((block > thr) if stop_above else (block <= thr))
        passed = cand & ~blocked
        low = np.where(passed, np.minimum(low, lows[k][j]), low)
        edge = np.where(passed, edge + step * (1 << k), edge)
        return blocked

    for k in range(top):
        climbing = (stuck == top) & (edge < n) & ((edge >> k) % 2 == 1)
        stuck = np.where(pass_blocks(k, climbing), k, stuck)
    for k in reversed(range(top)):
        pass_blocks(k, (k < stuck) & (stuck < top))
    return np.where(step < 0, edge - 1, np.minimum(edge, n)), low


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of every strict rise, flat run, strict fall in x."""
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    slope = dx[steps]
    is_peak = (slope[:-1] > 0) & (slope[1:] < 0)
    return (steps[:-1][is_peak] + 1 + steps[1:][is_peak]) // 2


def _crossing(at, toward, level):
    """Fractional step from samples at towards toward where level is
    crossed; 0 where at already reaches level."""
    below = at < level
    return np.divide(level - at, toward - at, out=np.zeros(at.size), where=below)


class ProminentPeaks:
    """Local maxima of x whose topographic prominence reaches a threshold.

    A peak is a strict rise, a flat run and a strict fall, indexed at
    the run's midpoint (left + right) // 2, never at either edge. Its
    prominence is its height above the higher of the two lowest samples
    found walking out from it, on each side, up to a strictly higher
    sample or the array edge; peaks with prominence >= the threshold
    are kept, in index order. half_widths() gives each kept peak's
    width at half its prominence, interpolated linearly between samples
    and bounded by the lowest points of those walks (its bases). These
    are the rules of the common signal-processing peak finder, and the
    tests hold the two to identical indices.
    """

    def __init__(self, x, prominence: float):
        self.x = x = np.asarray(x, dtype=float)
        peaks = _local_maxima(x)
        # No peak stands higher above its bases than above the global
        # minimum, so lower peaks can be dropped before walking.
        peaks = peaks[x[peaks] - x.min(initial=np.inf) >= prominence]
        height = x[peaks]
        _, lowest = _walk_out(x, peaks, height, stop_above=True)
        prominences = height - np.maximum(lowest[0], lowest[1])
        keep = prominence <= prominences
        self.indices = peaks[keep]
        self._prominences = prominences[keep]

    def half_widths(self) -> np.ndarray:
        """Width in samples at half prominence, linearly interpolated."""
        x, peaks = self.x, self.indices
        level = x[peaks] - self._prominences * 0.5
        # The lowest point of each side lies at or below half height, so
        # these walks never pass the peak's bases.
        (i, j), _ = _walk_out(x, peaks, level, stop_above=False)
        left_ip = i + _crossing(x[i], x[i + 1], level)
        right_ip = j - _crossing(x[j], x[j - 1], level)
        return right_ip - left_ip


def detect_peaks(
    hist: CoincidenceHistogram,
    min_prominence: float,
    peak_width: float | None,
) -> list[DetectedPeak]:
    """Locate comb peaks and refine each center by center of mass.

    Candidate maxima are the local maxima whose prominence is at least
    min_prominence times the count span (see ProminentPeaks). Each
    center is then refined iteratively as the center of mass of the
    bins within one peak width of the current estimate. The width is
    peak_width, the comb's 1 / (N nu_b) when the caller knows the comb;
    None falls back to the measured half-height width of each peak,
    which is computed only on that path. The center standard error
    follows from counting statistics. A given width must span at least
    10 bins, else the binning is too coarse to refine and an error is
    raised.
    """
    counts = hist.counts.astype(float)
    span = counts.max() - counts.min()
    if span <= 0:
        raise ValueError("histogram is flat; no peaks found")
    if peak_width is not None and not peak_width > 0:
        raise ValueError("peak_width must be positive")
    if peak_width is not None and peak_width < 10 * hist.bin_width:
        raise ValueError(
            "binning too coarse: need at least 10 bins per peak width "
            f"({peak_width / hist.bin_width:.1f} found)"
        )
    found = ProminentPeaks(counts, min_prominence * span)
    idx = found.indices
    if idx.size == 0:
        raise ValueError("no peaks exceed the prominence threshold")
    taus = hist.bin_centers
    if peak_width is None:
        half_widths = found.half_widths() * hist.bin_width / 2.0

    peaks = []
    supports = []
    for j, i in enumerate(idx):
        r = peak_width if peak_width is not None else max(half_widths[j], hist.bin_width * 5)
        center = taus[i]
        for _ in range(_COM_ITERATIONS):
            sel = np.abs(taus - center) <= r
            c_sel = counts[sel]
            total = c_sel.sum()
            if total <= 0:
                break
            center = float(np.sum(c_sel * taus[sel]) / total)
        if total <= 0:
            continue
        var = float(np.sum(c_sel * (taus[sel] - center) ** 2) / total)
        stderr = math.sqrt(var / total) if total > 0 else math.inf
        peaks.append(DetectedPeak(center, stderr, int(total)))
        supports.append(r)
    if not peaks:
        raise ValueError("no peaks with nonzero support found")
    order = sorted(range(len(peaks)), key=lambda j: peaks[j].center)
    # Noisy tops can yield several candidates inside one physical peak;
    # after refinement those converge to overlapping centers. Keep one
    # peak per support radius so the fit is not double-weighted.
    merged = [order[0]]
    for j in order[1:]:
        prev = merged[-1]
        gap = peaks[j].center - peaks[prev].center
        if gap <= max(supports[j], supports[prev]):
            if peaks[j].counts > peaks[prev].counts:
                merged[-1] = j
        else:
            merged.append(j)
    return [peaks[j] for j in merged]


def _assign_indices(centers: np.ndarray, nu_b_hint: float | None) -> np.ndarray:
    """Map peak centers to integer comb orders relative to the first."""
    base = centers[0]
    if nu_b_hint is not None:
        if nu_b_hint <= 0:
            raise ValueError("nu_b_hint must be positive")
        raw = (centers - base) * nu_b_hint
    else:
        gaps = np.diff(np.sort(centers))
        gaps = gaps[gaps > 0]
        if gaps.size == 0:
            raise ValueError("degenerate peak set: all centers coincide")
        raw = (centers - base) / np.median(gaps)
    ns = np.round(raw)
    drift = np.max(np.abs(raw - ns))
    if drift > 0.25:
        raise ValueError(
            f"index assignment ambiguous: rounding residual {drift:.3f} "
            "exceeds 0.25 of a period"
        )
    return ns.astype(int)


def fit_comb(peaks, nu_b_hint: float | None = None) -> CombFit:
    """Weighted least-squares line through (order n, peak center).

    peaks is a sequence of DetectedPeak or (center, stderr) pairs, at
    least two of them. Weights are inverse variances when every stderr
    is positive; otherwise the fit is unweighted and parameter errors
    are scaled from the residuals. The slope gives the comb period
    (nu_b_est is its inverse) and the intercept gives the path offset,
    reported in the principal interval.
    """
    centers = []
    stderrs = []
    for p in peaks:
        if isinstance(p, DetectedPeak):
            centers.append(p.center)
            stderrs.append(p.stderr)
        else:
            c, s = p
            centers.append(float(c))
            stderrs.append(float(s))
    centers = np.asarray(centers)
    stderrs = np.asarray(stderrs)
    if centers.size < 2:
        raise ValueError("need at least 2 peaks to fit the comb")

    ns = _assign_indices(centers, nu_b_hint)
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
