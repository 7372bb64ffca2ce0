"""Tests for event-stream generation and coincidence counting."""

import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ghostcomb import detection
from ghostcomb.io import EventStreamFile, write_event_stream
from ghostcomb.correlation import TWO_PI
from ghostcomb.seeding import (
    LABEL_ACCIDENTAL_DET1,
    LABEL_ACCIDENTAL_DET2,
    LABEL_PAIR_DELAY,
    LABEL_SINGLES_DET1,
    LABEL_SINGLES_DET2,
    derive_rng,
)
from ghostcomb import (
    CoincidenceHistogram,
    DetectorGeometry,
    EventStream,
    ModeLattice,
    build_histogram,
    comb_peak_orders,
    comb_peak_positions,
    comb_peak_width,
    contrast,
    g2_closed,
    sample_pairs,
)

CARRIER = 2.82e14
LAT10 = ModeLattice(n_modes=10, nu_b=20e3, nu_s0=CARRIER)
LAT1E5 = ModeLattice(n_modes=100_000, nu_b=20e3, nu_s0=CARRIER)
GEOM0 = DetectorGeometry(r1=0.0, r2=0.0)


def bin_centres(hist):
    """Every bin's documented centre, tau_min + (i + 0.5) * bin_width."""
    return hist.tau_min + (np.arange(hist.counts.size) + 0.5) * hist.bin_width


class TestEventStream:
    def test_accepts_valid_stream(self):
        s = EventStream(1, np.array([0.1, 0.5, 0.9]), 1.0)
        assert len(s) == 3

    def test_accepts_a_repeated_timestamp(self):
        # Uniform doubles repeat in a long stream; the sweep needs them
        # sorted, not distinct.
        s = EventStream(1, np.array([0.5, 0.5]), 1.0)
        assert len(s) == 2

    def test_validation(self):
        good = np.array([0.1, 0.5])
        with pytest.raises(ValueError):
            EventStream(3, good, 1.0)
        with pytest.raises(ValueError):
            EventStream(1, good.reshape(2, 1), 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventStream(1, np.array([0.5, 0.1]), 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventStream(1, np.array([0.5, 0.5, 0.25]), 1.0)
        with pytest.raises(ValueError):
            EventStream(1, np.array([-0.1, 0.5]), 1.0)
        with pytest.raises(ValueError):
            EventStream(1, np.array([0.1, 1.0]), 1.0)
        with pytest.raises(ValueError):
            EventStream(1, good, -1.0)

    @pytest.mark.parametrize("duration", [1.0, np.nan])
    def test_rejects_a_nan_in_a_one_event_stream(self, duration):
        # Both range comparisons are False for NaN; neither may pass it.
        with pytest.raises(ValueError, match="within"):
            EventStream(1, np.array([np.nan]), duration)

    @pytest.mark.parametrize(
        "duration, rate, message",
        [(np.nan, 1.0, "duration"), (1.0, np.nan, "rate"), (np.nan, np.nan, "duration")],
    )
    def test_rejects_a_nan_duration_or_rate(self, duration, rate, message):
        # The stream refuses a NaN duration before a singles rate is seen.
        with pytest.raises(ValueError, match=message):
            detection.StreamWithSingles(
                EventStream(1, np.empty(0), duration), rate, 1, LABEL_SINGLES_DET1
            )

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_chunks_are_consecutive_slices(self, size):
        s = EventStream(1, np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 1.0)
        chunks = list(s.chunks(size))
        assert all(c.base is s.timestamps for c in chunks)
        assert np.array_equal(np.concatenate(chunks), s.timestamps)
        assert [c.size for c in chunks[:-1]] == [size] * (len(chunks) - 1)


class TestSampleSingles:
    """Singles alone: a StreamWithSingles over an empty head."""

    @staticmethod
    def singles(rate, duration, seed, detector_id=1, label=LABEL_SINGLES_DET1):
        head = EventStream(detector_id, np.empty(0), duration)
        return detection.StreamWithSingles(head, rate, seed, label)

    def test_count_near_expectation(self):
        s = self.singles(1000.0, 100.0, seed=11)
        mean = 1000.0 * 100.0
        assert abs(len(s) - mean) < 5 * math.sqrt(mean)

    def test_zero_duration(self):
        s = self.singles(5.0, 0.0, seed=11)
        assert len(s) == 0
        assert TestStreamWithSingles.written(s).size == 0

    def test_uniform_timestamps(self):
        t = TestStreamWithSingles.written(self.singles(2000.0, 50.0, seed=42))
        p = stats.kstest(t / 50.0, "uniform").pvalue
        assert p > 0.01

    def test_deterministic(self):
        a = TestStreamWithSingles.written(self.singles(100.0, 10.0, seed=3))
        b = TestStreamWithSingles.written(self.singles(100.0, 10.0, seed=3))
        assert np.array_equal(a, b)

    def test_detectors_and_labels_decorrelate(self):
        written = TestStreamWithSingles.written
        a = written(self.singles(100.0, 10.0, seed=3, detector_id=1))
        b = written(self.singles(100.0, 10.0, seed=3, detector_id=2, label=LABEL_SINGLES_DET2))
        c = written(self.singles(100.0, 10.0, seed=3, detector_id=1, label=10))
        assert not np.array_equal(a[: len(b)], b[: len(a)])
        assert not np.array_equal(a[: len(c)], c[: len(a)])

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            self.singles(0.0, 1.0, seed=1)

    @pytest.mark.parametrize(
        "rate, duration, message", [(np.nan, 1.0, "rate"), (1.0, np.nan, "duration")]
    )
    def test_rejects_a_nan_rate_or_duration(self, rate, duration, message):
        # Refused by name, not inside numpy's Poisson draw.
        with pytest.raises(ValueError, match=message):
            self.singles(rate, duration, 1)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_is_the_sorted_uniform_draw(self, seed):
        # The in-place draw keeps the bits of rng.uniform(0, duration).
        rng = derive_rng(seed, LABEL_ACCIDENTAL_DET2)
        expected = np.sort(rng.uniform(0.0, 25.0, rng.poisson(4000.0 * 25.0)))
        s = self.singles(4000.0, 25.0, seed, detector_id=2, label=LABEL_ACCIDENTAL_DET2)
        assert TestStreamWithSingles.written(s).tobytes() == expected.tobytes()


class TestSamplePairs:
    RATE = 0.05
    DURATION = 1.0e6  # low rate over a long span keeps accidentals rare

    def pair_histogram(self, seed=21, jitter=0.0, bins_per_width=10):
        s1, s2 = sample_pairs(LAT10, GEOM0, self.RATE, self.DURATION, jitter, seed)
        width = comb_peak_width(LAT10)
        h = width / bins_per_width
        return s1, s2, build_histogram(s1, s2, h, -1.25e-4, 1.25e-4)

    def test_marginals_are_flat(self):
        s1, s2 = sample_pairs(LAT10, GEOM0, self.RATE, self.DURATION, 0.0, seed=21)
        for s in (s1, s2):
            counts, _ = np.histogram(s.timestamps, bins=100, range=(0, self.DURATION))
            assert stats.chisquare(counts).pvalue > 0.01

    def test_delay_distribution_matches_density(self):
        # Chi-square closure of the whole pipeline: sampled delays,
        # histogrammed, against the normalized correlation density.
        s1, s2, hist = self.pair_histogram(bins_per_width=5)
        grid = np.linspace(-1.25e-4, 1.25e-4, 20001)
        dens = np.asarray(g2_closed(LAT10, grid))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        edges = hist.tau_min + np.arange(hist.counts.size + 1) * hist.bin_width
        probs = np.diff(np.interp(edges, grid, cdf))
        expected = hist.total_pairs * probs
        mask = expected >= 10
        chi2 = np.sum((hist.counts[mask] - expected[mask]) ** 2 / expected[mask])
        assert chi2 / mask.sum() < 2.0

    def test_peaks_carry_equal_weight(self):
        _, _, hist = self.pair_histogram()
        width = comb_peak_width(LAT10)
        taus = bin_centres(hist)
        per_peak = []
        for n in range(-2, 3):
            center = n / LAT10.nu_b
            per_peak.append(int(hist.counts[np.abs(taus - center) <= width].sum()))
        assert stats.chisquare(per_peak).pvalue > 0.001

    def test_main_lobe_fraction(self):
        _, _, hist = self.pair_histogram()
        width = comb_peak_width(LAT10)
        grid = np.linspace(-1.25e-4, 1.25e-4, 20001)
        dens = np.asarray(g2_closed(LAT10, grid))
        centers = np.arange(-2, 3) / LAT10.nu_b
        lobe = np.min(np.abs(grid[:, None] - centers[None, :]), axis=1) <= width
        panels = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        frac_expected = np.sum(panels * lobe[1:]) / np.sum(panels)
        taus = bin_centres(hist)
        in_lobe = np.min(np.abs(taus[:, None] - centers[None, :]), axis=1) <= width
        frac = hist.counts[in_lobe].sum() / hist.total_pairs
        sigma = math.sqrt(frac_expected * (1 - frac_expected) / hist.total_pairs)
        assert abs(frac - frac_expected) < 5 * sigma + 0.002

    def test_no_samples_at_interior_zeros(self):
        # The density vanishes quadratically at k / (N nu_b); sampled
        # delays should stay clear of a narrow window around each zero.
        s1, s2, hist = self.pair_histogram(bins_per_width=500)
        width = comb_peak_width(LAT10)
        taus = bin_centres(hist)
        zeros = np.array(
            [k / (10 * LAT10.nu_b) for k in range(-24, 25) if k % 10 != 0]
        )
        near = np.min(np.abs(taus[:, None] - zeros[None, :]), axis=1) <= 1e-3 * width
        assert hist.counts[near].sum() == 0

    def test_jitter_broadens_peaks(self):
        _, _, sharp = self.pair_histogram(seed=22)
        _, _, fuzzy = self.pair_histogram(seed=22, jitter=5e-6)
        width = comb_peak_width(LAT10)
        taus = bin_centres(sharp)
        lobe = np.abs(taus) <= width
        frac_sharp = sharp.counts[lobe].sum() / sharp.total_pairs
        frac_fuzzy = fuzzy.counts[lobe].sum() / fuzzy.total_pairs
        assert frac_fuzzy < 0.7 * frac_sharp

    def test_deterministic(self):
        a1, a2 = sample_pairs(LAT10, GEOM0, 1.0, 100.0, 1e-7, seed=5)
        b1, b2 = sample_pairs(LAT10, GEOM0, 1.0, 100.0, 1e-7, seed=5)
        assert np.array_equal(a1.timestamps, b1.timestamps)
        assert np.array_equal(a2.timestamps, b2.timestamps)

    @pytest.mark.parametrize("jitter", [0.0, 1e-7])
    def test_draws_in_place(self, jitter):
        # The delays are drawn in fixed batches of a few hundred kB, so
        # the peak is the two output streams plus at most one pair-sized
        # temporary.
        (s1, s2), peak = traced_peak(sample_pairs, LAT10, GEOM0, 2e5, 1.0, jitter, seed=3)
        assert peak <= 1.6 * (s1.timestamps.nbytes + s2.timestamps.nbytes)

    def test_memory_does_not_grow_with_the_comb(self):
        # At N = 1e5 a tabulated CDF would need 250 N points (200 MB);
        # the sampler's batches do not depend on N.
        (s1, s2), peak = traced_peak(sample_pairs, LAT1E5, GEOM0, 2e5, 1.0, 0.0, seed=3)
        assert peak <= 1.6 * (s1.timestamps.nbytes + s2.timestamps.nbytes)

    def test_validation(self):
        # Each argument is refused by name, and a NaN fails each check
        # rather than passing it.
        for args, message in [
            ((0.0, 1.0, 0.0), "pair_rate"),
            ((np.nan, 1.0, 0.0), "pair_rate"),
            ((1.0, 0.0, 0.0), "duration"),
            ((1.0, np.nan, 0.0), "duration"),
            ((1.0, 1.0, -1e-9), "jitter_sigma"),
            ((100.0, 1.0, np.nan), "jitter_sigma"),
        ]:
            with pytest.raises(ValueError, match=message):
                sample_pairs(LAT10, GEOM0, *args, seed=1)
        # At 1e300 periods the sampler's proposal density overflowed and
        # it never returned; the window rule load applies refuses it.
        for periods in (0.0, -1.0, np.nan, np.inf, 1e300):
            with pytest.raises(ValueError, match="window_periods"):
                sample_pairs(LAT10, GEOM0, 1.0, 10.0, 0.0, seed=1, window_periods=periods)

    def test_window_outside_the_range_is_named(self):
        # At 2e4 Hz and 10 periods every delay lies within 2.5e-4 s of
        # the offset 0, widened by 10 sqrt(2) jitter_sigma.
        geom = DetectorGeometry(r1=0.0, r2=0.0, c=1.0)
        assert detection.window_range_error(geom, 2e4, 10.0, 0.0, 2.5e-4, 1.0) is None
        assert detection.window_range_error(geom, 2e4, 10.0, 1e-6, 2.6e-4, 1.0) is None
        for tau_min, tau_max in ((2.6e-4, 1.0), (-1.0, -2.5e-4)):
            error = detection.window_range_error(geom, 2e4, 10.0, 0.0, tau_min, tau_max)
            assert "window_periods" in error and "r1_m" in error


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance of samples from the CDF cdf(x)."""
    f = cdf(np.sort(samples))
    m = f.size
    return max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(m) / m))


def ks_critical(m):
    """The 1% critical value of the KS distance for m samples."""
    return 1.628 / math.sqrt(m)


def trapezoid_cdf(grid, density):
    """Normalized running trapezoid integral of density over grid."""
    panels = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(panels)))
    return cdf / cdf[-1]


def draw_delays(lattice, window_periods, count, seed, rng=None):
    """count retarded delays from the sampler, by default on its own stream."""
    out = np.empty(count)
    rng = rng if rng is not None else derive_rng(seed, LABEL_PAIR_DELAY)
    detection._draw_delays(lattice, window_periods, rng, out)
    return out


class CountingRng:
    """Wraps a Generator and counts the proposals drawn: one column each."""

    def __init__(self, rng):
        self.rng, self.proposals = rng, 0

    def random(self, shape):
        self.proposals += shape[-1]
        return self.rng.random(shape)


class TestDrawDelays:
    """The gridless sampler draws exactly from the comb, at bounded cost.

    Every expectation is integrated here from the sin ratio or from
    g2_closed on a grid; none comes from the sampler.
    """

    @pytest.mark.parametrize("n_modes", [10, 1000, 100_000])
    def test_folded_phase_matches_the_kernel(self, n_modes):
        # Delays folded into one period, against K_N integrated on a grid
        # of 400 points per tooth width within 20 widths of the peak and
        # 40 per width beyond, where the side lobes oscillate.
        lat = ModeLattice(n_modes=n_modes, nu_b=20e3, nu_s0=CARRIER)
        turns = draw_delays(lat, 5.0, 10**6, seed=n_modes) * lat.nu_b
        phase = TWO_PI * (turns - np.rint(turns))
        width = TWO_PI / n_modes
        near = np.linspace(0.0, min(20 * width, math.pi), 8001)
        far = np.linspace(near[-1], math.pi, int((math.pi - near[-1]) / width * 40) + 2)
        x = np.concatenate((near, far[1:]))
        with np.errstate(invalid="ignore"):
            kernel = (np.sin(0.5 * n_modes * x) / np.sin(0.5 * x)) ** 2
        kernel[0] = n_modes**2
        half = trapezoid_cdf(x, kernel)
        cdf = lambda v: 0.5 + 0.5 * np.sign(v) * np.interp(np.abs(v), x, half)
        assert ks_distance(phase, cdf) < ks_critical(phase.size)

    def test_period_index_is_uniform(self):
        lat = ModeLattice(n_modes=1000, nu_b=20e3, nu_s0=CARRIER)
        turns = draw_delays(lat, 7.0, 10**5, seed=4) * lat.nu_b
        counts = np.bincount((np.rint(turns) + 3).astype(int), minlength=7)
        assert counts.size == 7
        assert stats.chisquare(counts).pvalue > 0.01

    @pytest.mark.parametrize(
        "n_modes, delta_nu, window_periods",
        [(1000, 0.0, 2.5), (1000, 200.0, 5.0), (10, 200.0, 1000.0), (10, 19_000.0, 10.0)],
        ids=["window-2.5", "linewidth-200Hz", "linewidth-200Hz-wide", "linewidth-19kHz"],
    )
    def test_delays_match_g2_closed_over_the_window(self, n_modes, delta_nu, window_periods):
        # The wide case spans five envelope lobes each way, and the last
        # puts the envelope's zeros a period apart: in both the period
        # proposal follows the envelope's 1/tau^2 bound, not a flat one.
        lat = ModeLattice(n_modes=n_modes, nu_b=20e3, nu_s0=CARRIER, delta_nu=delta_nu)
        half = 0.5 * window_periods / lat.nu_b
        steps = int(2 * half / comb_peak_width(lat) * 40)
        grid = np.linspace(-half, half, steps + 1)
        cdf = trapezoid_cdf(grid, np.asarray(g2_closed(lat, grid)))
        delays = draw_delays(lat, window_periods, 3 * 10**5, seed=9)
        assert np.all(np.abs(delays) <= half)
        distance = ks_distance(delays, lambda v: np.interp(v, grid, cdf))
        assert distance < ks_critical(delays.size)

    @pytest.mark.parametrize("delta_nu", [0.0, 200.0, 19_999.0])
    @pytest.mark.parametrize("window_periods", [1e-4, 0.01, 0.5, 1.01, 2.5, 5.0, 1e4])
    def test_proposals_per_delay_are_bounded(self, window_periods, delta_nu):
        # The phase proposal holds 4 pi N against K_N's 2 pi N, and the
        # period proposal at most 4 (p + 1) / (pi p), p = nu_b / (pi dnu),
        # against the envelope's mass: 10.5 proposals per delay as dnu
        # nears nu_b. A window just over one period covers three; one
        # inside a period narrows the phase proposal instead.
        lat = ModeLattice(n_modes=1000, nu_b=20e3, nu_s0=CARRIER, delta_nu=delta_nu)
        rng = CountingRng(derive_rng(2, LABEL_PAIR_DELAY))
        delays = draw_delays(lat, window_periods, 2 * 10**5, seed=2, rng=rng)
        assert np.all(np.abs(delays) * lat.nu_b <= 0.5 * window_periods)
        assert rng.proposals / delays.size < 12.0

    def test_two_proposals_per_delay_at_zero_linewidth(self):
        rng = CountingRng(derive_rng(2, LABEL_PAIR_DELAY))
        delays = draw_delays(LAT1E5, 5.0, 10**6, seed=2, rng=rng)
        assert rng.proposals / delays.size < 2.1

    def test_batches_make_the_draws_a_prefix(self):
        # Fixed-size batches: a shorter draw is the start of a longer one.
        long = draw_delays(LAT10, 5.0, 50_000, seed=6)
        short = draw_delays(LAT10, 5.0, 1234, seed=6)
        assert short.tobytes() == long[:1234].tobytes()


class TestAddSingles:
    """A StreamWithSingles over a stream of pair times."""

    @staticmethod
    def merged(stream, rate, seed, label):
        """The sorted concatenation of the stream and its singles, drawn
        here as one uniform array, not by the code under test."""
        rng = derive_rng(seed, label)
        singles = rng.uniform(0.0, stream.duration, rng.poisson(rate * stream.duration))
        return np.sort(np.concatenate([stream.timestamps, singles]))

    @pytest.mark.parametrize("seed", [1, 2, 7, 2026])
    def test_equals_sorted_concatenation(self, seed):
        s1, s2 = sample_pairs(LAT10, GEOM0, 50.0, 20.0, 1e-7, seed)
        for stream, label in ((s1, LABEL_ACCIDENTAL_DET1), (s2, LABEL_ACCIDENTAL_DET2)):
            out = TestStreamWithSingles.written(
                detection.StreamWithSingles(stream, 5000.0, seed, label)
            )
            expected = self.merged(stream, 5000.0, seed, label)
            assert out.tobytes() == expected.tobytes()
            assert out.size > len(stream)

    def test_zero_duration(self):
        empty = EventStream(2, np.empty(0), 0.0)
        out = detection.StreamWithSingles(empty, 5000.0, 3, LABEL_ACCIDENTAL_DET2)
        assert len(out) == 0
        expected = self.merged(empty, 5000.0, 3, LABEL_ACCIDENTAL_DET2)
        assert TestStreamWithSingles.written(out).tobytes() == expected.tobytes()

    def test_interleaves(self):
        written = TestStreamWithSingles.written
        stream = EventStream(2, np.array([0.1, 0.4]), 1.0)
        out = written(detection.StreamWithSingles(stream, 30.0, 5, LABEL_ACCIDENTAL_DET2))
        singles = written(
            TestSampleSingles.singles(30.0, 1.0, 5, 2, LABEL_ACCIDENTAL_DET2)
        )
        assert out.size == singles.size + 2
        assert np.array_equal(np.setdiff1d(out, singles), [0.1, 0.4])
        assert np.all(np.diff(out) > 0)

    def test_keeps_detector_and_duration(self):
        stream = EventStream(2, np.array([0.1]), 3.0)
        out = detection.StreamWithSingles(stream, 10.0, 4, LABEL_ACCIDENTAL_DET2)
        assert (out.detector_id, out.duration) == (2, 3.0)
        assert TestStreamWithSingles.written(out)[-1] < 3.0
        for rate in (0.0, np.nan):
            with pytest.raises(ValueError, match="rate"):
                detection.StreamWithSingles(stream, rate, 4, LABEL_ACCIDENTAL_DET2)


class TestStreamWithSingles:
    """The slab writer's bytes do not depend on its slab length."""

    merged = staticmethod(TestAddSingles.merged)

    @staticmethod
    def written(stream, size=1 << 20):
        chunks = [c.copy() for c in stream.chunks(size)]
        assert all(0 < c.size <= size for c in chunks)
        return np.concatenate([np.empty(0)] + chunks)

    @pytest.mark.parametrize("slab", [3, 50, 4096])
    def test_bytes_match_across_slabs(self, slab, monkeypatch):
        # At most about 200 slabs: the writer notes each block's cut at
        # every slab edge, a table of (events / slab)^2 entries.
        s1, _ = sample_pairs(LAT10, GEOM0, 100.0, 2.0, 1e-7, 7)
        expected = self.merged(s1, 200.0, 7, LABEL_ACCIDENTAL_DET1)
        monkeypatch.setattr(detection, "_SLAB", slab)
        stream = detection.StreamWithSingles(s1, 200.0, 7, LABEL_ACCIDENTAL_DET1)
        assert len(stream) == expected.size > len(s1) > 100
        assert self.written(stream).tobytes() == expected.tobytes()
        # The singles are drawn afresh from the seed on every pass.
        assert self.written(stream, size=33).tobytes() == expected.tobytes()

    def test_head_on_a_slab_edge(self, monkeypatch):
        # Head events at every slab edge j * duration / k and at 0: each
        # falls in the slab above the edge, as every single does.
        rate, duration, seed, slab = 300.0, 3.0, 5, 64
        count = derive_rng(seed, LABEL_ACCIDENTAL_DET2).poisson(rate * duration)
        # k head events make k slabs: the fixed point of k -> ceil((count + k) / slab).
        k = 1
        while -(-(count + k) // slab) != k:
            k = -(-(count + k) // slab)
        head = np.arange(k) * duration / k
        stream = EventStream(2, head, duration)
        monkeypatch.setattr(detection, "_SLAB", slab)
        out = detection.StreamWithSingles(stream, rate, seed, LABEL_ACCIDENTAL_DET2)
        assert len(out) == count + k and k > 10
        expected = self.merged(stream, rate, seed, LABEL_ACCIDENTAL_DET2)
        assert self.written(out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("duration", [0.0, 2.0])
    def test_empty_head(self, duration, monkeypatch):
        monkeypatch.setattr(detection, "_SLAB", 50)
        empty = EventStream(1, np.empty(0), duration)
        out = detection.StreamWithSingles(empty, 400.0, 9, LABEL_ACCIDENTAL_DET1)
        expected = self.merged(empty, 400.0, 9, LABEL_ACCIDENTAL_DET1)
        assert len(out) == expected.size >= duration * 300
        assert self.written(out).tobytes() == expected.tobytes()

    def test_no_singles_drawn(self, monkeypatch):
        monkeypatch.setattr(detection, "_SLAB", 2)
        stream = EventStream(1, np.array([0.5, 1.0, 1.5, 2.5, 2.75]), 3.0)
        out = detection.StreamWithSingles(stream, 1e-9, 4, LABEL_ACCIDENTAL_DET1)
        assert out.n_singles == 0
        assert self.written(out).tobytes() == stream.timestamps.tobytes()

    def test_scratch_file_has_no_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr(detection, "_SLAB", 100)
        s1, _ = sample_pairs(LAT10, GEOM0, 50.0, 4.0, 0.0, 3)
        stream = detection.StreamWithSingles(s1, 500.0, 3, LABEL_ACCIDENTAL_DET1, tmp_path)
        chunks = stream.chunks(10)
        next(chunks)
        assert not list(tmp_path.iterdir())
        chunks.close()
        assert not list(tmp_path.iterdir())


class TestBuildHistogram:
    def test_empty_streams(self):
        empty = EventStream(1, np.empty(0), 1.0)
        h = build_histogram(empty, EventStream(2, np.empty(0), 1.0), 0.1, -0.5, 0.5)
        assert h.counts.sum() == 0
        assert h.counts.size == 10

    def test_single_pair_lands_in_expected_bin(self):
        s1 = EventStream(1, np.array([1.0]), 2.0)
        s2 = EventStream(2, np.array([0.9995]), 2.0)
        h = build_histogram(s1, s2, 1e-3, -5e-3, 5e-3)
        assert h.total_pairs == 1
        assert h.counts[5] == 1  # delay 5e-4 falls in [5e-4, 1.5e-3)

    def test_boundary_delays(self):
        tau_min, tau_max = -1e-3, 1e-3
        s1 = EventStream(1, np.array([2.0]), 4.0)
        at_min = EventStream(2, np.array([2.0 - tau_min]), 4.0)
        at_max = EventStream(2, np.array([2.0 - tau_max]), 4.0)
        h_min = build_histogram(s1, at_min, 1e-4, tau_min, tau_max)
        h_max = build_histogram(s1, at_max, 1e-4, tau_min, tau_max)
        assert h_min.counts[0] == 1  # tau == tau_min is included
        assert h_max.total_pairs == 0  # tau == tau_max is excluded

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        t1 = np.sort(rng.uniform(0, 50, 400))
        t2 = np.sort(rng.uniform(0, 50, 300))
        s1 = EventStream(1, t1, 50.0)
        s2 = EventStream(2, t2, 50.0)
        bin_width, tau_min, tau_max = 0.05, -1.0, 1.0
        h = build_histogram(s1, s2, bin_width, tau_min, tau_max)
        n_bins = h.counts.size
        brute = np.zeros(n_bins, dtype=int)
        for a in t1:
            for b in t2:
                d = a - b
                if tau_min <= d < tau_max:
                    brute[int((d - tau_min) / bin_width)] += 1
        assert np.array_equal(h.counts, brute)

    def test_matches_brute_force_with_repeated_timestamps(self):
        # Ties within each stream and across them, some pair delays on
        # bin edges and on both range bounds.
        t1 = np.repeat([0.5, 1.0, 1.25, 2.0], [3, 1, 2, 2])
        t2 = np.repeat([0.5, 0.75, 1.25, 2.5], [2, 3, 1, 2])
        s1, s2 = EventStream(1, t1, 4.0), EventStream(2, t2, 4.0)
        bin_width, tau_min, tau_max = 0.25, -0.75, 0.75
        expected = brute_force_counts(t1, t2, bin_width, tau_min, tau_max)
        assert expected.sum() > 0
        for size in (1, 2, 1 << 15):
            with mock.patch.object(detection, "_HISTOGRAM_CHUNK", size):
                h = build_histogram(s1, s2, bin_width, tau_min, tau_max)
            assert np.array_equal(h.counts, expected)

    def test_bin_count_rule(self):
        s = EventStream(1, np.array([1.0]), 2.0)
        h = build_histogram(s, s, 1e-3, -5e-3, 5e-3)
        assert h.counts.size == 10
        # A ratio off by less than one part in 1e6 is not expanded.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = build_histogram(s, s, 1e-3, -5e-3, 5e-3 * (1 + 1e-9))
        assert h.counts.size == 10

    def test_range_expansion(self):
        s = EventStream(1, np.array([1.0]), 2.0)
        with pytest.warns(UserWarning, match="expanding"):
            h = build_histogram(s, s, 3e-3, -5e-3, 5e-3)
        assert h.counts.size == 4
        assert h.tau_max == pytest.approx(-5e-3 + 4 * 3e-3)
        assert h.metadata["range_expanded_from"] == 5e-3

    def test_validation(self):
        s = EventStream(1, np.array([1.0]), 2.0)
        with pytest.raises(ValueError, match="bin_width_s"):
            build_histogram(s, s, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="tau_min_s, tau_max_s"):
            build_histogram(s, s, 0.1, 1.0, -1.0)

    def test_bin_count_cap(self):
        # 2.5e11 bins: refused by name, not by a failed 2 TB allocation.
        s = EventStream(1, np.array([1.0]), 2.0)
        with pytest.raises(ValueError, match="bin_width_s"):
            build_histogram(s, s, 1e-15, -1.25e-4, 1.25e-4)
        # The paper-scale comb at 10 bins per peak width fits under the
        # cap, on a grid that keeps its edge.
        assert detection.histogram_grid(5e-11, -1.25e-4, 1.25e-4) == (5_000_000, 1.25e-4)


class TestBinBlocks:
    """blocks() yields every bin once, in order, with its documented centre."""

    @pytest.mark.parametrize("n_bins", [0, 5, detection._BIN_BLOCK + 1])
    def test_covers_every_bin_once(self, n_bins):
        counts = np.arange(n_bins, dtype=np.int64)
        hist = CoincidenceHistogram(1e-9, -1e-5, 1e-5, counts)
        blocks = list(hist.blocks())
        size = detection._BIN_BLOCK
        assert [c.size for _, c in blocks] == [
            min(size, n_bins - start) for start in range(0, n_bins, size)
        ]
        assert all(t.size == c.size for t, c in blocks)
        assert np.array_equal(np.concatenate([[]] + [c for _, c in blocks]), counts)
        assert np.array_equal(np.concatenate([[]] + [t for t, _ in blocks]), bin_centres(hist))


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes it allocated, numpy buffers included."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_counts(t1, t2, bin_width, tau_min, tau_max):
    """Every pair of the sweep's window t2 in (t1 - tau_max, t1 - tau_min], binned alike."""
    n_bins = int(round((tau_max - tau_min) / bin_width))
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, t1.size, 256):
        c1 = t1[start : start + 256, None]
        inside = (t2 > c1 - tau_max) & (t2 <= c1 - tau_min)
        d = (c1 - t2)[inside]
        b = ((d - tau_min) / bin_width).astype(np.int64)
        counts += np.bincount(np.clip(b, 0, n_bins - 1), minlength=n_bins)
    return counts


# Six 8-byte arrays of the pair budget plus the chunk of t2 that w may
# hold past it.
TALLY_BOUND = 6 * 8 * (detection._PAIR_BUDGET + detection._HISTOGRAM_CHUNK)


class TestTallyMemory:
    """The tally's working set is bounded by the pair budget, not the pair density."""

    BIN_WIDTH, TAU_MIN, TAU_MAX = 1e-4, -0.05, 0.05

    def streams(self, pairs_per_event, n1, seed=5):
        rng = np.random.default_rng(seed)
        n2 = int(pairs_per_event / (self.TAU_MAX - self.TAU_MIN))
        t1 = np.sort(rng.uniform(0.0, 1.0, n1))
        t2 = np.sort(rng.uniform(0.0, 1.0, n2))
        return EventStream(1, t1, 1.0), EventStream(2, t2, 1.0)

    @pytest.mark.parametrize("pairs_per_event", [4, 100, 400])
    def test_peak_is_bounded_and_counts_exact(self, pairs_per_event):
        s1, s2 = self.streams(pairs_per_event, 5000)
        h, peak = traced_peak(
            build_histogram, s1, s2, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX
        )
        # Six 8-byte arrays of the budget's length. Expanding all 2e6
        # pairs at 400 pairs per event at once peaked at 78 MB.
        bound = 6 * 8 * detection._PAIR_BUDGET
        assert bound < 64e6
        assert peak < bound
        expected = brute_force_counts(
            s1.timestamps, s2.timestamps, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX
        )
        assert h.total_pairs > 0.8 * pairs_per_event * len(s1)
        assert np.array_equal(h.counts, expected)

    def test_sparse_t1_against_dense_t2(self):
        # 300 events reach across 2e6 dense events: merging with all of
        # them would take three arrays of that length, 34 MB.
        rng = np.random.default_rng(4)
        t1 = np.sort(rng.uniform(0.0, 1.0, 300))
        t2 = np.sort(rng.uniform(0.0, 1.0, 2_000_000))
        s1, s2 = EventStream(1, t1, 1.0), EventStream(2, t2, 1.0)
        tau = 2e-3
        h, peak = traced_peak(build_histogram, s1, s2, 1e-5, -tau, tau)
        assert peak < TALLY_BOUND
        lo = np.searchsorted(t2, t1 - tau, side="right")
        hi = np.searchsorted(t2, t1 + tau, side="right")
        assert h.total_pairs == int((hi - lo).sum()) > 2e6

    @pytest.mark.parametrize("budget", [150, 999, 4096])
    def test_counts_exact_at_any_budget(self, budget, monkeypatch):
        # 150 is below every event's pair count, so each event's window
        # is tallied in slices; the others split chunks between events.
        s1, s2 = self.streams(400, 300, seed=6)
        monkeypatch.setattr(detection, "_PAIR_BUDGET", budget)
        h = build_histogram(s1, s2, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX)
        expected = brute_force_counts(
            s1.timestamps, s2.timestamps, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX
        )
        assert np.array_equal(h.counts, expected)


# Few distinct values, so w and the keys tie often; the keys also reach
# below w's first value and past its last.
sorted_values = st.lists(st.integers(-3, 12).map(float), max_size=60).map(sorted)


class TestRank:
    """The window-bound ranks equal a right-sided binary search."""

    @settings(max_examples=300, deadline=None)
    @given(w=sorted_values, keys=sorted_values)
    def test_equals_searchsorted(self, w, keys):
        w, keys = np.array(w), np.array(keys)
        expected = np.searchsorted(w, keys, side="right")
        assert np.array_equal(detection._rank(w, keys), expected)


# Sorted event times on a 0.025 grid over [0, 10), so delays often
# fall on bin edges; repeated times and empty streams included.
event_times = st.lists(st.integers(0, 399), max_size=80).map(
    lambda v: np.array(sorted(v), dtype=float) * 0.025
)


class TestChunkFedSweep:
    """Detector 1 read back from its file in chunks tallies as in memory."""

    @settings(max_examples=100, deadline=None)
    @given(t1=event_times, t2=event_times)
    def test_file_chunks_give_the_in_memory_counts(self, t1, t2):
        s1, s2 = EventStream(1, t1, 10.0), EventStream(2, t2, 10.0)
        expected = build_histogram(s1, s2, 0.1, -1.0, 1.0).counts
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "stream_d1.bin"
            write_event_stream(path, s1)
            for size in (1, 7, 1 << 15):
                with mock.patch.object(detection, "_HISTOGRAM_CHUNK", size):
                    h = build_histogram(EventStreamFile(path), s2, 0.1, -1.0, 1.0)
                assert np.array_equal(h.counts, expected)


class TestTwoFileSweep:
    """Both detectors read back from their files tally as in memory."""

    @settings(max_examples=100, deadline=None)
    @given(t1=event_times, t2=event_times)
    def test_two_files_give_the_in_memory_counts(self, t1, t2):
        s1, s2 = EventStream(1, t1, 10.0), EventStream(2, t2, 10.0)
        expected = build_histogram(s1, s2, 0.1, -1.0, 1.0).counts
        with tempfile.TemporaryDirectory() as d:
            paths = [Path(d) / "stream_d1.bin", Path(d) / "stream_d2.bin"]
            write_event_stream(paths[0], s1)
            write_event_stream(paths[1], s2)
            # A budget of 1 stops reading t2 one value past the first
            # event's window, so windows complete a few events at a time.
            for size, budget in ((1, 1), (7, 3), (1 << 15, 1 << 17)):
                with mock.patch.multiple(
                    detection, _HISTOGRAM_CHUNK=size, _PAIR_BUDGET=budget
                ):
                    h = build_histogram(
                        EventStreamFile(paths[0]), EventStreamFile(paths[1]), 0.1, -1.0, 1.0
                    )
                assert np.array_equal(h.counts, expected)

    def test_dense_streams_from_files(self, tmp_path):
        s1, s2 = TestTallyMemory().streams(100, 20000, seed=2)
        paths = [tmp_path / "stream_d1.bin", tmp_path / "stream_d2.bin"]
        write_event_stream(paths[0], s1)
        write_event_stream(paths[1], s2)
        args = (TestTallyMemory.BIN_WIDTH, TestTallyMemory.TAU_MIN, TestTallyMemory.TAU_MAX)
        h = build_histogram(EventStreamFile(paths[0]), EventStreamFile(paths[1]), *args)
        assert h.total_pairs > 1e6
        assert np.array_equal(h.counts, build_histogram(s1, s2, *args).counts)


class TestTallyAtManyBins:
    """At the paper-scale 5e6 bins the tally adds no bin-sized temporary."""

    BIN_WIDTH, TAU_MIN, TAU_MAX = 2e-8, -0.05, 0.05

    def test_counts_exact_and_peak_beyond_counts_small(self):
        rng = np.random.default_rng(9)
        t1 = np.sort(rng.uniform(0.0, 1.0, 2000))
        t2 = np.sort(rng.uniform(0.0, 1.0, 20000))
        s1, s2 = EventStream(1, t1, 1.0), EventStream(2, t2, 1.0)
        h, peak = traced_peak(
            build_histogram, s1, s2, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX
        )
        assert h.counts.size == 5_000_000
        # One bincount of 5e6 bins per block took 40 MB beyond the counts.
        assert peak - h.counts.nbytes < TALLY_BOUND
        expected = brute_force_counts(t1, t2, self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX)
        assert h.total_pairs > 3e6
        assert np.array_equal(h.counts, expected)

    def test_histogram_checks_its_counts_without_a_bin_sized_temporary(self):
        # A check of counts < 0 took one byte per bin, 5 MB here.
        n_bins = 5_000_000
        h, peak = traced_peak(
            lambda: CoincidenceHistogram(
                self.BIN_WIDTH, self.TAU_MIN, self.TAU_MAX, np.zeros(n_bins, dtype=np.int64)
            )
        )
        assert h.counts.size == n_bins
        assert peak - h.counts.nbytes < 1e6


def running_min_regions(hist, lattice, geom):
    """Peak and valley bins by a running minimum over every comb center."""
    period = 1.0 / lattice.nu_b
    orders = comb_peak_orders(lattice, geom, hist.tau_min - period, hist.tau_max + period)
    taus = bin_centres(hist)
    dist = np.full(taus.size, np.inf)
    for c in comb_peak_positions(lattice, geom, orders):
        np.minimum(dist, np.abs(taus - c), out=dist)
    width = comb_peak_width(lattice)
    return dist <= width, dist >= 3.0 * width


class TestContrast:
    def synthetic_histogram(self, peak, valley, skirt):
        width = comb_peak_width(LAT10)
        h = width
        tau_min, tau_max = -1.25e-4, 1.25e-4
        n_bins = int(round((tau_max - tau_min) / h))
        taus = tau_min + (np.arange(n_bins) + 0.5) * h
        centers = np.arange(-3, 4) / LAT10.nu_b
        dist = np.min(np.abs(taus[:, None] - centers[None, :]), axis=1)
        counts = np.full(n_bins, skirt)
        counts[dist <= width] = peak
        counts[dist >= 3 * width] = valley
        return CoincidenceHistogram(h, tau_min, tau_max, counts)

    def test_mixture_arithmetic(self):
        hist = self.synthetic_histogram(90, 10, 50)
        assert contrast(hist, LAT10, GEOM0) == pytest.approx(0.8, rel=1e-12)

    def test_flat_histogram_has_zero_contrast(self):
        hist = self.synthetic_histogram(25, 25, 25)
        assert contrast(hist, LAT10, GEOM0) == 0.0

    def test_simulated_pairs_are_high_contrast(self):
        # Many modes keep the between-peak side lobes small relative to
        # the main lobes, so an ideal run shows near-unit contrast.
        lat = ModeLattice(n_modes=100, nu_b=20e3, nu_s0=CARRIER)
        s1, s2 = sample_pairs(lat, GEOM0, 0.05, 1e6, 0.0, seed=33)
        width = comb_peak_width(lat)
        hist = build_histogram(s1, s2, width / 10, -1.25e-4, 1.25e-4)
        assert contrast(hist, lat, GEOM0) > 0.99

    def test_count_floor(self):
        hist = self.synthetic_histogram(1, 0, 0)
        with pytest.raises(ValueError, match="at least"):
            contrast(hist, LAT10, GEOM0)

    def test_matches_broadcast_nearest_center_in_a_few_bin_arrays(self):
        n_bins = 500_000
        tau_min, tau_max = -1.25e-4, 1.25e-4
        width = (tau_max - tau_min) / n_bins
        counts = np.random.default_rng(4).poisson(20.0, n_bins)
        hist = CoincidenceHistogram(width, tau_min, tau_max, counts)
        value, peak = traced_peak(contrast, hist, LAT10, GEOM0)
        # The bins x centers formula, as written before the running minimum.
        period = 1.0 / LAT10.nu_b
        orders = comb_peak_orders(LAT10, GEOM0, tau_min - period, tau_max + period)
        centers = comb_peak_positions(LAT10, GEOM0, orders)
        dist = np.min(np.abs(bin_centres(hist)[:, None] - centers[None, :]), axis=1)
        peak_mean = counts[dist <= comb_peak_width(LAT10)].mean()
        valley_mean = counts[dist >= 3.0 * comb_peak_width(LAT10)].mean()
        assert value == (peak_mean - valley_mean) / (peak_mean + valley_mean)
        assert centers.size >= 5
        assert peak <= 4 * 8 * n_bins

    @pytest.mark.parametrize(
        "n_modes,nu_b,r1,bin_width,tau_min,tau_max",
        [
            (10, 20e3, 0.0, 5e-9, -1.25e-4, 1.25e-4),
            (7, 17e3, 2.99792458, 3.7e-9, -1.3e-4, 1.1e-4),
            # Bin centres fall on the midpoints between comb centres, where
            # the two nearest centres tie.
            (7, 20e3, 0.0, 1 / (14 * 20e3), -2 / 20e3 - 1 / (28 * 20e3), 2 / 20e3),
            (1000, 20e3, 1234.5, 5e-10, 1e-3, 1.05e-3),
            # Three peak widths are half a period: a bin at a midpoint is
            # a valley only if neither neighbouring centre is nearer.
            # (Bins of 1/24 period from 3 periods before the offset.)
            (6, 20e3, 0.1, 2.0833333333333334e-06, -0.00015104133310257147,
             0.00015000033356409522),
        ],
    )
    def test_matches_the_running_minimum_over_every_center(
        self, n_modes, nu_b, r1, bin_width, tau_min, tau_max
    ):
        lat = ModeLattice(n_modes=n_modes, nu_b=nu_b, nu_s0=CARRIER)
        geom = DetectorGeometry(r1=r1, r2=0.0)
        n_bins = int(round((tau_max - tau_min) / bin_width))
        counts = np.random.default_rng(n_modes).integers(0, 10**6, n_bins)
        hist = CoincidenceHistogram(bin_width, tau_min, tau_max, counts)
        peak_bins, valley_bins = running_min_regions(hist, lat, geom)
        peak_mean = counts[peak_bins].mean()
        valley_mean = counts[valley_bins].mean()
        expected = (peak_mean - valley_mean) / (peak_mean + valley_mean)
        assert contrast(hist, lat, geom) == expected

    def test_paper_scale_stays_under_10_mb(self):
        # N = 1e5 on 5e6 bins of 50 ps, the configuration of criterion 10.
        n_bins, bin_width = 5_000_000, 5e-11
        counts = np.random.default_rng(12).poisson(0.2, n_bins)
        hist = CoincidenceHistogram(
            bin_width, -1.25e-4, -1.25e-4 + n_bins * bin_width, counts
        )
        geom = DetectorGeometry(r1=2.99792458, r2=0.0)
        value, peak = traced_peak(contrast, hist, LAT1E5, geom)
        assert peak < 10 * 2**20
        peak_bins, valley_bins = running_min_regions(hist, LAT1E5, geom)
        peak_mean = counts[peak_bins].mean()
        valley_mean = counts[valley_bins].mean()
        assert value == (peak_mean - valley_mean) / (peak_mean + valley_mean)

    def test_range_without_valleys(self):
        # Two modes: every delay is within one width of some peak center.
        lat2 = ModeLattice(n_modes=2, nu_b=20e3, nu_s0=CARRIER)
        h = CoincidenceHistogram(5e-6, -2.5e-5, 2.5e-5, np.full(10, 100))
        with pytest.raises(ValueError, match="lacks"):
            contrast(h, lat2, GEOM0)
