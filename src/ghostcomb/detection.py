"""Monte Carlo photodetection: event streams and coincidence counting.

The simulated experiment records independent timestamp streams at two
detectors. Viewed alone each stream is a flat Poisson process carrying
no trace of the comb; the comb appears only in the histogram of pair
delays t1 - t2. Correlated pairs are generated by drawing the pair
delay exactly from the normalized correlation density, by rejection
with no table, and placing the pair uniformly in time, so the marginal
of each stream stays exactly flat.

Histogramming is a sorted sweep, linear in the number of events plus
tallied pairs, so million-event streams are processed in seconds
without forming the quadratic pair set. The sweep takes detector 1 as
sorted chunks, so detector 1 need not be in memory: `simulate` feeds it
back from its stream file while only detector 2 is held. Each chunk
finds its pair windows by merging against the stretch of the detector-2
stream it can reach, not by binary search over the whole stream. The
sweep expands at most _PAIR_BUDGET pairs at a time and adds them to
the counts in place, so its working set stays a few arrays of that
length whatever the number of pairs per event or bins. Streams are
drawn and sorted in their final buffer, so each one is held once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .correlation import comb_peak_width, dirichlet_kernel
from .lattice import DetectorGeometry, ModeLattice
from .seeding import (
    LABEL_JITTER_DET1,
    LABEL_JITTER_DET2,
    LABEL_PAIR_COUNT,
    LABEL_PAIR_DELAY,
    LABEL_PAIR_PLACEMENT,
    LABEL_SINGLES_DET1,
    LABEL_SINGLES_DET2,
    derive_rng,
)

# Delay proposals drawn at once; bounds the sampler's temporaries to a
# few hundred kB, well under one pair stream.
_DELAY_BATCH = 1 << 14

# Detector-1 events whose pair windows are located by one merge, and
# the chunk length a detector-1 stream is fed to the sweep in.
_HISTOGRAM_CHUNK = 1 << 15
# Longest reachable detector-2 stretch, in chunk lengths, ranked by
# merge; a longer one (sparse t1 against dense t2) is binary-searched,
# which is faster there and keeps the working set the chunk's size.
_MERGE_RATIO = 2
# Most pair delays expanded at once; bounds the tally's working set to
# a few arrays of this length (about 5 MB), well under one stream of a
# dense run, so the tally's blocks do not set the peak of `simulate`.
_PAIR_BUDGET = 1 << 17
# Most histogram bins; at this cap the counts alone take 80 MB.
_MAX_HISTOGRAM_BINS = 10_000_000
# Bins per block of CoincidenceHistogram.blocks(), so its readers'
# temporaries are a few arrays of this length whatever the bin count.
# The fit sums floats block by block, so its results depend on it.
_BIN_BLOCK = 1 << 15


@dataclass(frozen=True)
class EventStream:
    """Timestamps recorded at one detector over [0, duration)."""

    detector_id: int
    timestamps: np.ndarray
    duration: float
    rate: float
    seed: int | None = None

    def __post_init__(self):
        if self.detector_id not in (1, 2):
            raise ValueError("detector_id must be 1 or 2")
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1:
            raise ValueError("timestamps must be a 1-d array")
        if ts.size:
            if not np.all(ts[1:] > ts[:-1]):
                raise ValueError("timestamps must be strictly increasing")
            # Written so that a NaN fails it too, as do the checks below.
            if not (ts[0] >= 0 and ts[-1] < self.duration):
                raise ValueError("timestamps must lie within [0, duration)")
        if not self.duration >= 0:
            raise ValueError("duration must be non-negative")
        if not self.rate >= 0:
            raise ValueError("rate must be non-negative")
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def chunks(self, size: int):
        """The timestamps as consecutive slices of at most size events."""
        for start in range(0, self.timestamps.size, size):
            yield self.timestamps[start : start + size]


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned counts of pair delays t1 - t2 over [tau_min, tau_max).

    Bin i covers [tau_min + i * bin_width, tau_min + (i+1) * bin_width).
    total_pairs is the number of tallied pairs, equal to counts.sum().
    An int64 counts array is kept as given, not copied.
    metadata is an opaque record of the run that produced the counts;
    no analysis here reads it, so callers pass the comb explicitly.
    """

    bin_width: float
    tau_min: float
    tau_max: float
    counts: np.ndarray
    total_pairs: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if not self.tau_max > self.tau_min:
            raise ValueError("tau_max must exceed tau_min")
        if int(counts.sum()) != int(self.total_pairs):
            raise ValueError("total_pairs must equal the sum of counts")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))

    def blocks(self):
        """(bin centres, counts) in consecutive blocks of _BIN_BLOCK bins.

        Bin i's centre is tau_min + (i + 0.5) * bin_width, formed a
        block at a time, so no array of the bin count is formed.
        """
        for start in range(0, self.counts.size, _BIN_BLOCK):
            counts = self.counts[start : start + _BIN_BLOCK]
            taus = self.tau_min + (np.arange(start, start + counts.size) + 0.5) * self.bin_width
            yield taus, counts


def _with_singles(head: np.ndarray, rate: float, duration: float, rng) -> np.ndarray:
    """Sorted head plus a Poisson draw of singles over [0, duration).

    One buffer of the final length is allocated; head is copied to its
    front and the singles are drawn into the rest, so no second stream
    is held. The draw is bit-identical to rng.uniform(0.0, duration).
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    count = int(rng.poisson(rate * duration))
    times = np.empty(head.size + count)
    times[: head.size] = head
    tail = times[head.size :]
    rng.random(out=tail)
    tail *= duration
    tail.sort()
    # Two sorted runs: timsort merges them in one linear pass.
    times.sort(kind="stable")
    return times


def sample_singles(
    rate: float,
    duration: float,
    seed: int,
    detector_id: int = 1,
    label: int | None = None,
) -> EventStream:
    """Homogeneous Poisson stream of uncorrelated detection times.

    The optional label overrides the RNG stream label, letting callers
    generate auxiliary uncorrelated streams (accidental background) that
    do not collide with the primary singles streams under one seed.
    """
    if not duration >= 0:
        raise ValueError("duration must be non-negative")
    if label is None:
        label = LABEL_SINGLES_DET1 if detector_id == 1 else LABEL_SINGLES_DET2
    times = _with_singles(np.empty(0), rate, duration, derive_rng(seed, label))
    return EventStream(detector_id, times, duration, rate, seed)


def add_singles(stream: EventStream, rate: float, seed: int, label: int) -> EventStream:
    """The stream with uncorrelated singles (accidentals) added.

    The singles are those sample_singles(rate, stream.duration, seed,
    stream.detector_id, label) draws, and the timestamps equal the
    sorted concatenation of the two streams; but they are drawn into
    the output's buffer, so only the output is allocated.
    """
    times = _with_singles(stream.timestamps, rate, stream.duration, derive_rng(seed, label))
    return EventStream(stream.detector_id, times, stream.duration, stream.rate + rate, None)


def _core_tails(u: np.ndarray, core: float, edge: float) -> np.ndarray:
    """Uniforms u in [0, 1) mapped by inverse CDF to [-edge, edge) with
    density min(1, (core/z)^2): a flat core and two 1/z^2 tails."""
    core = min(core, edge)
    v = (2.0 * u - 1.0) * (2.0 * core - core * core / edge)
    t = np.abs(v)
    return np.copysign(np.where(t <= core, t, core * core / (2.0 * core - t)), v)


def _draw_delays(lattice: ModeLattice, window_periods: float, rng, out: np.ndarray) -> None:
    """Fill out with retarded delays drawn exactly from g2_closed within
    window_periods comb periods centred on zero.

    A proposal is a period k = rint(w) and a phase x: the delay is
    (k + x / 2 pi) / nu_b. x follows min(N^2, pi^2/x^2) >= K_N(x), as
    |sin(x/2)| >= |x|/pi, narrowed to a window inside one period; w
    follows min(1, (c/w)^2), c = 1 + nu_b / (pi dnu), which bounds
    sinc^2(dnu tau) over period k. One inside the window is kept with
    probability target over bound: about two proposals per delay, at
    most about eleven, in fixed batches so the seed alone fixes them.
    """
    n, nu_b, dnu = lattice.n_modes, lattice.nu_b, lattice.delta_nu
    half = 0.5 * window_periods
    core = nu_b / (math.pi * dnu) + 1.0 if dnu > 0 else math.inf
    filled = 0
    while filled < out.size:
        u = rng.random((3, _DELAY_BATCH))
        w = _core_tails(u[0], core, math.ceil(half + 0.5) - 0.5)
        x = _core_tails(u[1], math.pi / n, math.pi * min(window_periods, 1.0))
        periods = np.rint(w) + x / (2.0 * math.pi)
        # Target over bound, times pi^2, with no division by x or w.
        score = dirichlet_kernel(n, x) * np.maximum(x * x, (math.pi / n) ** 2)
        if dnu > 0:
            score *= np.sinc(dnu / nu_b * periods) ** 2 * np.maximum(1.0, (w / core) ** 2)
        kept = periods[(u[2] * math.pi**2 < score) & (np.abs(periods) <= half)]
        kept = kept[: out.size - filled]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    out /= nu_b


def sample_pairs(
    lattice: ModeLattice,
    geom: DetectorGeometry,
    pair_rate: float,
    duration: float,
    jitter_sigma: float,
    seed: int,
    *,
    window_periods: float = 5.0,
) -> tuple[EventStream, EventStream]:
    """Correlated pair streams whose delay histogram traces the comb.

    The number of pairs is Poisson with mean pair_rate * duration. Each
    pair's delay t1 - t2 is drawn exactly from g2_closed within
    window_periods comb periods centred on the geometric offset (see
    _draw_delays); t2 is uniform over the duration and t1 wraps modulo
    it, so both marginal streams are exactly flat. Gaussian jitter of
    width jitter_sigma is added to (and wraps) every timestamp.
    Detector 1 receives the signal-side times.
    """
    # Written so that a NaN fails them too.
    if not pair_rate > 0:
        raise ValueError("pair_rate must be positive")
    if not duration > 0:
        raise ValueError("duration must be positive")
    if not jitter_sigma >= 0:
        raise ValueError("jitter_sigma must be non-negative")
    if not 0 < window_periods < math.inf:
        raise ValueError("window_periods must be positive and finite")

    # The delays are drawn into t1's buffer and every later step works
    # in place, so at most three pair-sized arrays are held at once.
    count = int(derive_rng(seed, LABEL_PAIR_COUNT).poisson(pair_rate * duration))
    t1 = np.empty(count)
    _draw_delays(lattice, window_periods, derive_rng(seed, LABEL_PAIR_DELAY), t1)
    t1 += geom.retarded_offset
    t2 = derive_rng(seed, LABEL_PAIR_PLACEMENT).uniform(0.0, duration, size=count)
    t1 += t2
    np.mod(t1, duration, out=t1)
    if jitter_sigma > 0:
        for t, label in ((t1, LABEL_JITTER_DET1), (t2, LABEL_JITTER_DET2)):
            t += derive_rng(seed, label).normal(0.0, jitter_sigma, count)
            np.mod(t, duration, out=t)
    t1.sort()
    t2.sort()
    s1 = EventStream(1, t1, duration, pair_rate, seed)
    s2 = EventStream(2, t2, duration, pair_rate, seed)
    return s1, s2


def histogram_bins_error(bin_width: float, tau_min: float, tau_max: float) -> str | None:
    """Why a histogram of this binning is refused, or None.

    Checked before anything is allocated, so a tiny bin width fails
    with a message instead of asking for billions of bins.
    """
    bins = (tau_max - tau_min) / bin_width
    if bins > _MAX_HISTOGRAM_BINS:
        return (
            f"bin_width_s={bin_width!r} gives {bins:.3g} histogram bins over "
            f"[tau_min_s, tau_max_s); at most {_MAX_HISTOGRAM_BINS} are allowed"
        )
    return None


def _rank(w: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(w, keys, side="right") for sorted w and keys.

    Short windows are ranked by a stable merge of the two sorted runs:
    w goes first, so a key lands after every w element equal to it, and
    its rank is its merged position less the keys before it.
    """
    if w.size > _MERGE_RATIO * keys.size:
        return np.searchsorted(w, keys, side="right")
    order = np.argsort(np.concatenate([w, keys]), kind="stable")
    return np.flatnonzero(order >= w.size) - np.arange(keys.size)


def _tally(counts: np.ndarray, d: np.ndarray, tau_min: float, bin_width: float) -> None:
    """Add the pair delays d to counts, in place; d is overwritten."""
    d -= tau_min
    d /= bin_width
    b = d.astype(np.int64)
    np.add.at(counts, np.clip(b, 0, counts.size - 1, out=b), 1)


def build_histogram(
    s1,
    s2: EventStream,
    bin_width: float,
    tau_min: float,
    tau_max: float,
    metadata: dict | None = None,
) -> CoincidenceHistogram:
    """Histogram of all pair delays t1 - t2 within [tau_min, tau_max).

    s1 is detector 1 as anything whose chunks(size) yields its sorted
    timestamps in consecutive chunks: an EventStream, which gives
    slices of itself, or an io.EventStreamFile, which reads them from
    disk so the stream is never held whole. s2 is held in memory.

    Runs a vectorized sweep over the sorted streams, linear in the
    number of events plus tallied pairs: each chunk of _HISTOGRAM_CHUNK
    t1 events ranks its window bounds by merging with the stretch of t2
    it reaches (see _rank). At most _PAIR_BUDGET pair delays are
    expanded at once and added to the counts in place, so the working
    set beyond the counts and s2 is bounded by those constants, whatever
    the pair density or the number of bins. If bin_width does not
    divide the range to within one part in 1e6, the range is expanded
    upward to a whole number of bins and the expansion is recorded in
    the metadata (and warned about). More than _MAX_HISTOGRAM_BINS bins
    are refused before any allocation.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    if not tau_max > tau_min:
        raise ValueError("tau_max must exceed tau_min")
    if error := histogram_bins_error(bin_width, tau_min, tau_max):
        raise ValueError(error)
    span = tau_max - tau_min
    ratio = span / bin_width
    n_bins = int(round(ratio))
    meta = dict(metadata) if metadata else {}
    if n_bins < 1 or abs(ratio - n_bins) > 1e-6 * ratio:
        n_bins = int(math.ceil(ratio))
        new_max = tau_min + n_bins * bin_width
        warnings.warn(
            f"bin_width does not divide the range; expanding tau_max "
            f"from {tau_max!r} to {new_max!r}",
            stacklevel=2,
        )
        meta["range_expanded_from"] = tau_max
        tau_max = new_max

    t2 = s2.timestamps
    counts = np.zeros(n_bins, dtype=np.int64)
    for c1 in s1.chunks(_HISTOGRAM_CHUNK):
        # Pairs with tau_min <= t1 - t2 < tau_max, i.e. t2 in
        # (t1 - tau_max, t1 - tau_min]. Both key arrays are sorted, so
        # every window lies in t2[a:b], bounded by the first and last.
        klo = c1 - tau_max
        khi = c1 - tau_min
        a = int(np.searchsorted(t2, klo[0], side="right"))
        b = int(np.searchsorted(t2, khi[-1], side="right"))
        lo = a + _rank(t2[a:b], klo)
        hi = a + _rank(t2[a:b], khi)
        m = hi - lo
        ends = np.cumsum(m)
        starts = ends - m
        total = int(ends[-1])
        # Expand the chunk's pair positions [p, q) one budget at a time:
        # events [i, j) hold them, each clipped to its share mb.
        for p in range(0, total, _PAIR_BUDGET):
            q = min(p + _PAIR_BUDGET, total)
            i = int(np.searchsorted(ends, p, side="right"))
            j = int(np.searchsorted(ends, q, side="left")) + 1
            mb = np.minimum(ends[i:j], q) - np.maximum(starts[i:j], p)
            # Position s of event e pairs with t2 index lo_e + s - start_e.
            idx = np.repeat(lo[i:j] - starts[i:j] + p, mb)
            idx += np.arange(q - p)
            d = np.repeat(c1[i:j], mb)
            d -= t2[idx]
            del idx
            _tally(counts, d, tau_min, bin_width)

    return CoincidenceHistogram(
        bin_width, tau_min, tau_max, counts, int(counts.sum()), meta
    )


def contrast(
    hist: CoincidenceHistogram,
    lattice: ModeLattice,
    geom: DetectorGeometry,
    min_counts: int = 1000,
) -> float:
    """Peak-to-valley contrast (peak - valley) / (peak + valley).

    Peak bins lie within one peak width of a predicted comb center,
    valley bins at least three widths away from every center; the
    in-between skirt is excluded from both means. Centers and width
    are those of the given comb. Fails when total counts fall below
    min_counts or when either region is empty within the range.

    Even an ideal run's valley bins are not empty: they hold the
    squared Dirichlet kernel's side lobes, about 1/(3 pi^2) of the
    pairs for N >> 1. That is why the contrast reads 0.9998 and not 1
    at N=1000 with no background.
    """
    if hist.total_pairs < min_counts:
        raise ValueError(
            f"histogram has {hist.total_pairs} counts; "
            f"at least {min_counts} required for a contrast estimate"
        )
    width = comb_peak_width(lattice)
    nu_b, offset = lattice.nu_b, geom.retarded_offset
    # Count sums and bin counts of the peak and valley regions, over
    # blocks of bins so no array of the bin count is formed.
    sums, sizes = [0, 0], [0, 0]
    for taus, block in hist.blocks():
        # The nearest comb centre is the rounded order's or a
        # neighbour's, each formed as comb_peak_positions forms it.
        order = np.rint((taus - offset) * nu_b)
        dist = np.abs(taus - (order / nu_b + offset))
        for step in (-1.0, 1.0):
            np.minimum(dist, np.abs(taus - ((order + step) / nu_b + offset)), out=dist)
        for i, region in enumerate((dist <= width, dist >= 3.0 * width)):
            sums[i] += int(block[region].sum())
            sizes[i] += int(np.count_nonzero(region))
    if not all(sizes):
        raise ValueError("histogram range lacks peak or valley bins")
    peak_mean, valley_mean = sums[0] / sizes[0], sums[1] / sizes[1]
    if peak_mean + valley_mean == 0:
        return 0.0
    return (peak_mean - valley_mean) / (peak_mean + valley_mean)
