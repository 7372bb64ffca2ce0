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
without forming the quadratic pair set. The sweep takes both detectors
as sorted chunks, so neither need be in memory: `simulate` feeds them
back from their stream files. Each run of detector-1 events finds its
pair windows by merging against the window of the detector-2 stream it
can reach, not by binary search over the whole stream. The sweep
expands at most _HISTOGRAM_CHUNK pairs at a time and adds them to the
counts in place, so its working set stays a few arrays of that length
whatever the number of pairs per event or bins. Accidental singles are
sorted into a stream a slab at a time through a scratch file
(StreamWithSingles), so `simulate` holds no detector stream whole.
Nothing here reads a histogram back: its fit and contrast are timing's.
"""

from __future__ import annotations

import math
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from .correlation import dirichlet_kernel
from .lattice import DetectorGeometry, ModeLattice
from .seeding import (
    LABEL_JITTER_DET1,
    LABEL_JITTER_DET2,
    LABEL_PAIR_COUNT,
    LABEL_PAIR_DELAY,
    LABEL_PAIR_PLACEMENT,
    derive_rng,
)

# Delay proposals drawn at once; bounds the sampler's temporaries to a
# few hundred kB, well under one pair stream.
_DELAY_BATCH = 1 << 14

# The tally's one block size: the chunk length both streams are fed to
# the sweep in, and the most pair delays expanded at once. It bounds the
# tally's working set to a few arrays of this length plus the window of
# t2 (about 2 MB), so the tally does not set the peak of `simulate`.
_HISTOGRAM_CHUNK = 1 << 15
# Most expected events per detector. No stream is held whole; the cap
# bounds each stream file (0.8 GB), sample_pairs' three pair-sized arrays
# and the slab writer's cut table ((events / slab)^2, 36,000 entries).
_MAX_EVENTS = 10**8
# Most histogram bins (see histogram_grid); the counts alone take 80 MB.
_MAX_HISTOGRAM_BINS = 10_000_000
# Events per slab of a StreamWithSingles, and per block its singles
# are drawn in: its buffers hold about this many events (4 MB), well
# under one stream of a dense run. Freeing that buffer also raises
# glibc's dynamic mmap and trim thresholds, so the tally that follows in
# `simulate` reuses heap pages instead of faulting in fresh ones: at
# 1 << 17 the sim-dense tally took 68k page faults, not 16, and 0.51 s,
# not 0.41 s. Time `simulate` before shrinking it.
_SLAB = 1 << 19
# Bins per block of CoincidenceHistogram.blocks(), so its readers'
# temporaries are a few arrays of this length whatever the bin count.
# The fit sums floats block by block, so its results depend on it.
_BIN_BLOCK = 1 << 15
# Fewest float steps of the farthest delay, in seconds or periods, a comb tooth must span.
_TOOTH_STEPS = 1000


@dataclass(frozen=True)
class EventStream:
    """Timestamps recorded at one detector over [0, duration)."""

    detector_id: int
    timestamps: np.ndarray
    duration: float

    def __post_init__(self):
        if self.detector_id not in (1, 2):
            raise ValueError("detector_id must be 1 or 2")
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1:
            raise ValueError("timestamps must be a 1-d array")
        if ts.size:
            if not np.all(ts[1:] >= ts[:-1]):
                raise ValueError("timestamps must be non-decreasing")
            # Written so that a NaN fails it too, as do the checks below.
            if not (ts[0] >= 0 and ts[-1] < self.duration):
                raise ValueError("timestamps must lie within [0, duration)")
        if not self.duration >= 0:
            raise ValueError("duration must be non-negative")
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
    An int64 counts array is kept as given, not copied.
    metadata is an opaque record of the run that produced the counts;
    no analysis here reads it, so callers pass the comb explicitly.
    """

    bin_width: float
    tau_min: float
    tau_max: float
    counts: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        # min(), not counts < 0: no bin-sized temporary.
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if not self.tau_max > self.tau_min:
            raise ValueError("tau_max must exceed tau_min")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))

    @property
    def total_pairs(self) -> int:
        """The number of tallied pairs."""
        return int(self.counts.sum())

    def blocks(self):
        """(bin centres, counts) in consecutive blocks of _BIN_BLOCK bins.

        Bin i's centre is tau_min + (i + 0.5) * bin_width, formed a
        block at a time, so no array of the bin count is formed.
        """
        for start in range(0, self.counts.size, _BIN_BLOCK):
            counts = self.counts[start : start + _BIN_BLOCK]
            taus = self.tau_min + (np.arange(start, start + counts.size) + 0.5) * self.bin_width
            yield taus, counts


class StreamWithSingles:
    """A sorted stream plus Poisson singles, sorted a slab at a time.

    This is the one way singles (accidentals) enter a stream. The draw
    is rng = derive_rng(seed, label), then count = rng.poisson(rate *
    head.duration), then count uniforms on [0, head.duration) in blocks
    of _SLAB, bit-identical to one rng.uniform(0.0, head.duration,
    count). The timestamps equal the sorted concatenation of head's and
    the singles', but no array of the stream's length is formed.
    chunks() sorts each block of singles and appends it to an unnamed
    scratch file in scratch_dir (the system's temporary directory if
    None), noting where it crosses the slab edges j * duration / k, with
    k slabs of about _SLAB events. It then gathers each slab's pieces
    and head's share into one reused buffer and sorts it. The stream is
    the sorted multiset, so its bytes do not depend on _SLAB. The
    singles are drawn afresh from the seed on every call, so chunks()
    may be called more than once.
    """

    def __init__(self, head: EventStream, rate: float, seed: int, label: int, scratch_dir=None):
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.head = head
        self.detector_id = head.detector_id
        self.duration = head.duration
        self.singles_rate = rate
        self.seed, self.label, self.scratch_dir = seed, label, scratch_dir
        self.n_singles = self._singles()[0]

    def _singles(self):
        """The number of singles and the generator positioned to draw them."""
        rng = derive_rng(self.seed, self.label)
        return int(rng.poisson(self.singles_rate * self.duration)), rng

    def __len__(self) -> int:
        return len(self.head) + self.n_singles

    def chunks(self, size: int):
        """The timestamps in consecutive chunks of at most size events.

        Each chunk is a view of the reused slab buffer, valid until the
        next chunk is asked for.
        """
        head, duration = self.head.timestamps, self.duration
        count, rng = self._singles()
        slabs = -(-(head.size + count) // _SLAB)
        if not slabs:
            return
        edges = np.arange(1, slabs) * duration / slabs
        with tempfile.TemporaryFile(dir=self.scratch_dir) as fh:
            cuts = _write_sorted_blocks(fh, rng, count, duration, edges)
            head_cuts = np.concatenate([[0], np.searchsorted(head, edges), [head.size]])
            sizes = np.diff(head_cuts) + np.diff(cuts, axis=1).sum(axis=0)
            slab = np.empty(int(sizes.max()))
            for j in range(slabs):
                n = int(head_cuts[j + 1] - head_cuts[j])
                slab[:n] = head[head_cuts[j] : head_cuts[j + 1]]
                for lo, hi in cuts[:, j : j + 2].tolist():
                    fh.seek(8 * lo)
                    if fh.readinto(slab[n : n + hi - lo]) != 8 * (hi - lo):
                        raise OSError("short read from the singles scratch file")
                    n += hi - lo
                run = slab[:n]
                run.sort()
                for start in range(0, n, size):
                    yield run[start : start + size]


def _write_sorted_blocks(fh, rng, count: int, duration: float, edges: np.ndarray) -> np.ndarray:
    """Draw count singles over [0, duration) in blocks of _SLAB, sort each
    block and append it to fh. Returns cuts: cuts[b, j] is the position in
    fh, in events, where block b's share of the slab above edges[j - 1]
    starts, and cuts[b, -1] is the block's end."""
    cuts = np.empty((-(-count // _SLAB), edges.size + 2), dtype=np.int64)
    block = np.empty(min(count, _SLAB))
    for b, start in enumerate(range(0, count, _SLAB)):
        part = block[: min(_SLAB, count - start)]
        rng.random(out=part)
        part *= duration
        part.sort()
        cuts[b, 0], cuts[b, -1] = start, start + part.size
        cuts[b, 1:-1] = start + np.searchsorted(part, edges)
        fh.write(part)
    return cuts


@np.errstate(divide="ignore", invalid="ignore")
def _core_tails(u: np.ndarray, core: float, edge: float) -> np.ndarray:
    """Uniforms u in [0, 1) mapped by inverse CDF to [-edge, edge) with
    density min(1, (core/z)^2): a flat core and two 1/z^2 tails. Where
    core * core underflows (a window under about 1e-154 periods), 2 core
    - t can reach 0; _draw_delays rejects the NaN or inf drawn there."""
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


def sampling_error(
    n_modes: int, window_periods: float, duration: float, jitter_sigma: float, events: float
) -> str | None:
    """Why sample_pairs refuses these inputs, or None; load asks first,
    counting the accidentals in the expected events per detector.

    _draw_delays forms each delay in periods, up to window_periods / 2,
    so a comb tooth, 1 / n_modes of a period, must span over _TOOTH_STEPS
    float steps there; far past that the sampler would never return. A
    jitter draw past 10 sigma has odds near 1e-23, so none of the at most
    _MAX_EVENTS times overflows where duration + 10 jitter_sigma is finite.
    """
    if not 0 < window_periods < math.inf:
        return f"window_periods={window_periods!r} must be positive and finite"
    if not 1 / n_modes > _TOOTH_STEPS * math.ulp(0.5 * window_periods):
        return (
            f"a comb tooth 1 / (n_modes nu_b_hz) must span over {_TOOTH_STEPS} float steps "
            f"of the sampled delay in periods, up to window_periods / 2"
        )
    if not math.isfinite(jittered := duration + 10.0 * jitter_sigma):
        return f"the jittered time duration_s + 10 jitter_sigma_s must be finite, got {jittered!r}"
    if not events <= _MAX_EVENTS:
        return (
            f"(pair_rate_hz + accidental_rate_hz) * duration_s gives {events:.3g} "
            f"expected events per detector; at most {_MAX_EVENTS:.0e} are allowed"
        )
    return None


def window_range_error(
    geom: DetectorGeometry, nu_b: float, window_periods: float, jitter_sigma: float,
    tau_min: float, tau_max: float,
) -> str | None:
    """Why no sampled pair can land in [tau_min, tau_max), or None.

    sample_pairs draws every delay within window_periods / (2 nu_b) of
    the geometric offset, and the two detectors' jitter widens that by
    10 sqrt(2) jitter_sigma, past which a draw has odds near 1e-23. A
    window wholly outside the range leaves only accidentals in it,
    whatever the pair rate or duration.
    """
    offset = geom.retarded_offset
    half = 0.5 * window_periods / nu_b + 10.0 * math.sqrt(2.0) * jitter_sigma
    if offset + half < tau_min or offset - half >= tau_max:
        return (
            f"the sampling window (r1_m - r2_m) / c_mps +/- (window_periods / (2 nu_b_hz) "
            f"+ 10 sqrt(2) jitter_sigma_s) = {offset!r} +/- {half!r} s lies wholly outside "
            f"[tau_min_s, tau_max_s) = [{tau_min!r}, {tau_max!r}), so no pair lands in range"
        )
    return None


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
        raise ValueError(f"pair_rate_hz={pair_rate!r} must be positive")
    if not duration > 0:
        raise ValueError(f"duration_s={duration!r} must be positive")
    if not jitter_sigma >= 0:
        raise ValueError(f"jitter_sigma_s={jitter_sigma!r} must be non-negative")
    if error := sampling_error(
        lattice.n_modes, window_periods, duration, jitter_sigma, pair_rate * duration
    ):
        raise ValueError(error)

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
    return EventStream(1, t1, duration), EventStream(2, t2, duration)


def histogram_grid(bin_width: float, tau_min: float, tau_max: float) -> tuple[int, float]:
    """(n_bins, grid_tau_max) over [tau_min, tau_max): the one bin-grid rule.

    A range within one part in 1e6 of whole bins keeps tau_max; any other
    is expanded up to the next whole bin. A bin width that is not
    positive, a range of no finite, positive number of bins and more than
    _MAX_HISTOGRAM_BINS bins are refused by key, before any allocation.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width_s={bin_width!r} must be positive")
    ratio = (tau_max - tau_min) / bin_width
    if not 0 < ratio < math.inf:
        raise ValueError(f"[tau_min_s, tau_max_s) holds {ratio!r} bins of bin_width_s")
    n_bins = round(ratio)
    if n_bins < 1 or abs(ratio - n_bins) > 1e-6 * ratio:
        n_bins = math.ceil(ratio)
        tau_max = tau_min + n_bins * bin_width
    if n_bins > _MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"bin_width_s={bin_width!r} gives {ratio:.3g} histogram bins over "
            f"[tau_min_s, tau_max_s); at most {_MAX_HISTOGRAM_BINS} are allowed"
        )
    return n_bins, tau_max


def _rank(w: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(w, keys, side="right") for sorted w and keys.

    The ranks come from a stable merge of the two sorted runs: w goes
    first, so a key lands after every w element equal to it, and its
    rank is its merged position less the keys before it. It beat
    np.searchsorted on the seed-3 sim-dense tally, 0.42 s to 0.48 s in
    the median, in 15 of 18 alternating in-process runs on a 2-vCPU Xeon.
    """
    order = np.argsort(np.concatenate([w, keys]), kind="stable")
    return np.flatnonzero(order >= w.size) - np.arange(keys.size)


def _tally_events(
    counts: np.ndarray, c1: np.ndarray, w: np.ndarray, tau_min: float, tau_max: float,
    bin_width: float,
) -> None:
    """Add every pair of the t1 events c1 to counts, in place.

    w is a stretch of t2 that holds each event's whole window, from the
    first value the first window reaches.
    """
    klo = c1 - tau_max
    khi = c1 - tau_min
    # Both key arrays are sorted, so every window lies in t2, bounded by
    # the last key; each event's bounds are ranked by a merge (_rank).
    t2 = w[: np.searchsorted(w, khi[-1], side="right")]
    lo = _rank(t2, klo)
    hi = _rank(t2, khi)
    m = hi - lo
    ends = np.cumsum(m)
    starts = ends - m
    total = int(ends[-1])
    # Expand the pair positions [p, q) one block at a time: events
    # [i, j) hold them, each clipped to its share mb.
    for p in range(0, total, _HISTOGRAM_CHUNK):
        q = min(p + _HISTOGRAM_CHUNK, total)
        i = int(np.searchsorted(ends, p, side="right"))
        j = int(np.searchsorted(ends, q, side="left")) + 1
        mb = np.minimum(ends[i:j], q) - np.maximum(starts[i:j], p)
        # Position s of event e pairs with t2 index lo_e + s - start_e.
        idx = np.repeat(lo[i:j] - starts[i:j] + p, mb)
        idx += np.arange(q - p)
        d = np.repeat(c1[i:j], mb)
        d -= t2[idx]
        del idx
        d -= tau_min
        d /= bin_width
        # Rebinding d frees the delays, so one block, not two, outlives a pass (2 % faster).
        d = d.astype(np.int64)
        np.add.at(counts, np.clip(d, 0, counts.size - 1, out=d), 1)


def build_histogram(
    s1,
    s2,
    bin_width: float,
    tau_min: float,
    tau_max: float,
    metadata: dict | None = None,
) -> CoincidenceHistogram:
    """Histogram of all pair delays t1 - t2 within [tau_min, tau_max).

    s1 and s2 are the two detectors as anything whose chunks(size)
    yields its sorted timestamps in consecutive chunks: an EventStream,
    which gives slices of itself, or an io.EventStreamFile, which reads
    them from disk, so neither stream is ever held whole.

    Runs a vectorized sweep over the sorted streams, linear in the
    number of events plus tallied pairs. It keeps a window of t2 that
    starts where the first pending t1 event's window does and reads on
    until the window passes the chunk's last event, or until it holds
    _HISTOGRAM_CHUNK values beyond the first event's window; then it
    tallies the t1 events whose windows are complete. Each run of them
    ranks its window bounds by merging with the stretch of t2 it reaches
    (see _rank), and at most _HISTOGRAM_CHUNK pair delays are expanded
    at once and added to the counts in place. So the working set beyond
    the counts is bounded by that block size and one event's window,
    whatever the stream lengths, the pair density or the number of
    bins. The bins are histogram_grid's; if it expands the range, the
    expansion is recorded in the metadata (and warned about).
    """
    n_bins, grid_max = histogram_grid(bin_width, tau_min, tau_max)
    meta = dict(metadata) if metadata else {}
    if grid_max != tau_max:
        warnings.warn(
            f"bin_width does not divide the range; expanding tau_max "
            f"from {tau_max!r} to {grid_max!r}",
            stacklevel=2,
        )
        meta["range_expanded_from"] = tau_max
        tau_max = grid_max

    counts = np.zeros(n_bins, dtype=np.int64)
    # Pairs with tau_min <= t1 - t2 < tau_max, i.e. t2 in
    # (t1 - tau_max, t1 - tau_min]. w is the stretch of t2 read so far
    # from the first value the first pending t1 event's window reaches.
    t2_chunks = s2.chunks(_HISTOGRAM_CHUNK)
    w, exhausted = np.empty(0), False
    for c1 in s1.chunks(_HISTOGRAM_CHUNK):
        while c1.size:
            w = w[np.searchsorted(w, c1[0] - tau_max, side="right") :]
            # Read until w passes the last window, or holds a block of
            # values beyond the first event's window (sparse t1 against
            # dense t2), so w stays the size of a window plus a block.
            while not exhausted and (
                w.size == 0
                or (
                    w[-1] <= c1[-1] - tau_min
                    and w.size - np.searchsorted(w, c1[0] - tau_min, side="right")
                    <= _HISTOGRAM_CHUNK
                )
            ):
                chunk = next(t2_chunks, None)
                if chunk is None:
                    exhausted = True
                else:
                    w = np.concatenate([w, chunk])
            # t2 is sorted, so an event whose window ends before w does
            # is complete; the first event always is.
            n = c1.size if exhausted else int(np.searchsorted(c1 - tau_min, w[-1], side="left"))
            _tally_events(counts, c1[:n], w, tau_min, tau_max, bin_width)
            c1 = c1[n:]

    return CoincidenceHistogram(bin_width, tau_min, tau_max, counts, meta)
