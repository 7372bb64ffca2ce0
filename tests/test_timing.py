"""Tests for peak detection and comb-line fitting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks

from ghostcomb import (
    CoincidenceHistogram,
    CombFit,
    DetectedPeak,
    DetectorGeometry,
    ModeLattice,
    build_histogram,
    comb_peak_positions,
    comb_peak_width,
    detect_peaks,
    fit_comb,
    g2_closed,
    resolution_estimate,
    sample_pairs,
)
from ghostcomb.lattice import SPEED_OF_LIGHT
from ghostcomb.timing import prominent_peaks

CARRIER = 2.82e14
LAT10 = ModeLattice(n_modes=10, nu_b=20e3, nu_s0=CARRIER)
GEOM0 = DetectorGeometry(r1=0.0, r2=0.0)
PERIOD = 1.0 / LAT10.nu_b


WIDTH10 = comb_peak_width(LAT10)


def synthetic_histogram(lattice=LAT10, scale=100_000):
    """Noise-free histogram whose counts trace the correlation curve."""
    h = comb_peak_width(lattice) / 25
    tau_min, tau_max = -1.25e-4, 1.25e-4
    n_bins = int(round((tau_max - tau_min) / h))
    taus = tau_min + (np.arange(n_bins) + 0.5) * h
    counts = np.round(scale * np.asarray(g2_closed(lattice, taus))).astype(np.int64)
    return CoincidenceHistogram(h, tau_min, tau_max, counts, int(counts.sum()))


def assert_matches_reference(x, prominence):
    """prominent_peaks against scipy.signal's find_peaks."""
    x = np.asarray(x, dtype=float)
    ref, _ = find_peaks(x, prominence=prominence)
    np.testing.assert_array_equal(prominent_peaks(x, prominence), ref)


class TestProminentPeaks:
    @settings(max_examples=500, deadline=None)
    @given(
        x=st.lists(st.integers(0, 4), max_size=40),
        prominence=st.integers(0, 8).map(lambda k: k / 2),
    )
    @example(x=[], prominence=0.0)
    @example(x=[3], prominence=0.0)
    @example(x=[1, 2], prominence=0.0)
    @example(x=[0, 2, 1], prominence=0.0)
    @example(x=[2, 2, 2, 2, 2], prominence=0.0)
    @example(x=[0, 1, 3, 3, 3], prominence=0.0)  # plateau into the last sample
    @example(x=[0, 3, 3, 1, 3, 3, 3], prominence=1.0)
    @example(x=[1, 3, 1, 4, 0, 4, 2, 5, 0], prominence=2.0)
    def test_matches_reference_on_small_integer_arrays(self, x, prominence):
        assert_matches_reference(x, prominence)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_noisy_comb(self, seed):
        # Long enough to exercise every level of the range tables.
        rng = np.random.default_rng(seed)
        n = 20_000 + seed
        comb = 200 * np.sin(np.arange(n) * np.pi / 997) ** 40
        x = rng.poisson(30 + comb).astype(float)
        span = x.max() - x.min()
        for frac in (0.01, 0.25, 0.6):
            assert_matches_reference(x, frac * span)

    def test_no_widths_without_peaks(self):
        assert prominent_peaks(np.zeros(5), 1.0).size == 0


class TestDetectPeaks:
    def test_noiseless_centers(self):
        hist = synthetic_histogram()
        peaks = detect_peaks(hist, 0.25, peak_width=WIDTH10)
        assert len(peaks) == 5
        for peak, n in zip(peaks, range(-2, 3)):
            assert abs(peak.center - n * PERIOD) < hist.bin_width / 10
            assert peak.counts > 0
            assert peak.stderr > 0

    def test_explicit_width_argument(self):
        hist = synthetic_histogram()
        peaks = detect_peaks(hist, 0.25, peak_width=WIDTH10)
        assert len(peaks) == 5
        with pytest.raises(ValueError):
            detect_peaks(hist, 0.25, peak_width=-1e-6)

    def test_flat_histogram(self):
        h = CoincidenceHistogram(1e-6, 0.0, 1e-5, np.full(10, 7), 70, {})
        with pytest.raises(ValueError, match="flat"):
            detect_peaks(h, 0.25, peak_width=1e-5)

    def test_coarse_binning(self):
        lat = LAT10
        h = comb_peak_width(lat)  # one bin per width: far too coarse
        n_bins = int(round(2.5e-4 / h))
        taus = -1.25e-4 + (np.arange(n_bins) + 0.5) * h
        counts = np.round(1000 * np.asarray(g2_closed(lat, taus))).astype(np.int64)
        hist = CoincidenceHistogram(
            h, -1.25e-4, 1.25e-4, counts, int(counts.sum())
        )
        with pytest.raises(ValueError, match="coarse"):
            detect_peaks(hist, 0.25, peak_width=comb_peak_width(lat))

    def test_prominence_threshold(self):
        hist = synthetic_histogram()
        with pytest.raises(ValueError, match="prominence"):
            detect_peaks(hist, 1.01, peak_width=WIDTH10)

    def test_split_tops_are_merged(self):
        # At low counts one physical peak can present several candidate
        # maxima; refinement must collapse them to a single peak.
        s1, s2 = sample_pairs(LAT10, GEOM0, 0.05, 2e5, 0.0, seed=11)
        hist = build_histogram(s1, s2, 2e-7, -1.25e-4, 1.25e-4)
        peaks = detect_peaks(hist, 0.25, peak_width=WIDTH10)
        assert len(peaks) == 5
        centers = [p.center for p in peaks]
        assert np.all(np.diff(centers) > 0.5 * PERIOD)

    def test_simulated_peaks_within_errors(self):
        s1, s2 = sample_pairs(LAT10, GEOM0, 0.05, 1e6, 0.0, seed=44)
        hist = build_histogram(s1, s2, WIDTH10 / 25, -1.25e-4, 1.25e-4)
        peaks = detect_peaks(hist, 0.25, peak_width=WIDTH10)
        truth = comb_peak_positions(LAT10, GEOM0, range(-2, 3))
        assert len(peaks) == 5
        for peak, target in zip(peaks, truth):
            assert abs(peak.center - target) < 4 * peak.stderr


class TestFitComb:
    def exact_peaks(self, offset=0.0, orders=(-1, 0, 1), stderr=1e-9):
        return self.peaks_at([n * PERIOD + offset for n in orders], stderr)

    @staticmethod
    def peaks_at(centers, stderr=1e-9):
        return [DetectedPeak(c, stderr, 1000) for c in centers]

    def test_exact_grid(self):
        fit = fit_comb(self.exact_peaks(), 20e3)
        assert fit.nu_b_est == pytest.approx(20e3, rel=1e-12)
        assert abs(fit.offset_est) < 1e-18
        assert fit.residual_rms < 1e-18
        assert fit.n_peaks_used == 3
        assert fit.offset_period == pytest.approx(PERIOD, rel=1e-12)
        assert [n for n, _, _ in fit.peak_positions] == [0, 1, 2]

    def test_recovers_offset(self):
        fit = fit_comb(self.exact_peaks(offset=1e-8), 20e3)
        assert fit.offset_est == pytest.approx(1e-8, rel=1e-9)
        assert fit.nu_b_est == pytest.approx(20e3, rel=1e-12)

    def test_weighted_fit_discounts_bad_peak(self):
        peaks = self.exact_peaks(orders=(-1, 0, 1)) + [
            DetectedPeak(2 * PERIOD + 2e-6, 1e-4, 10)
        ]
        fit = fit_comb(peaks, 20e3)
        assert abs(fit.offset_est) < 1e-9

    def test_unweighted_fallback(self):
        fit = fit_comb(self.exact_peaks(stderr=0.0), 20e3)
        assert fit.nu_b_est == pytest.approx(20e3, rel=1e-12)
        assert fit.offset_stderr == 0.0
        noisy = self.peaks_at([-PERIOD - 1e-7, 1e-7, PERIOD - 1e-7], stderr=0.0)
        assert fit_comb(noisy, 20e3).offset_stderr > 0

    def test_period_relabeling_leaves_offset(self):
        base = fit_comb(self.exact_peaks(offset=2e-9), 20e3)
        shifted = fit_comb(self.exact_peaks(offset=2e-9 + 7 * PERIOD), 20e3)
        assert shifted.offset_est == pytest.approx(base.offset_est, abs=1e-15)
        assert shifted.nu_b_est == pytest.approx(base.nu_b_est, rel=1e-12)

    def test_principal_interval(self):
        fit = fit_comb(self.exact_peaks(offset=0.6 * PERIOD), 20e3)
        assert fit.offset_est == pytest.approx(-0.4 * PERIOD, rel=1e-9)
        top = fit_comb(self.exact_peaks(offset=0.5 * PERIOD), 20e3)
        assert top.offset_est == pytest.approx(0.5 * PERIOD, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(delta=st.floats(min_value=-1.2e-5, max_value=1.2e-5, allow_nan=False))
    def test_shift_equivariance(self, delta):
        fit = fit_comb(self.exact_peaks(offset=delta, orders=(-2, -1, 0, 1, 2)), 20e3)
        assert fit.offset_est == pytest.approx(delta, rel=1e-9, abs=1e-18)

    def test_ambiguous_spacing(self):
        peaks = self.peaks_at([0.0, 0.4 * PERIOD, PERIOD])
        with pytest.raises(ValueError, match="ambiguous"):
            fit_comb(peaks, 20e3)

    def test_degenerate_sets(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_comb(self.peaks_at([0.0]), 20e3)
        with pytest.raises(ValueError, match="degenerate"):
            fit_comb(self.peaks_at([1e-5, 1e-5]), 20e3)
        with pytest.raises(ValueError):
            fit_comb(self.exact_peaks(), -5.0)

    def test_end_to_end_offset_recovery(self):
        true_offset = 1e-8
        geom = DetectorGeometry(r1=true_offset * SPEED_OF_LIGHT, r2=0.0)
        s1, s2 = sample_pairs(LAT10, geom, 0.05, 1e6, 0.0, seed=55)
        hist = build_histogram(s1, s2, WIDTH10 / 25, -1.25e-4, 1.25e-4)
        fit = fit_comb(detect_peaks(hist, 0.25, peak_width=WIDTH10), 20e3)
        assert abs(fit.offset_est - true_offset) < 3 * fit.offset_stderr
        assert isinstance(fit, CombFit)


class TestResolutionEstimate:
    def test_single_pair_is_peak_width(self):
        lat = ModeLattice(n_modes=100_000, nu_b=20e3, nu_s0=CARRIER)
        assert resolution_estimate(lat, 1) == pytest.approx(500e-12, rel=1e-12)

    def test_scales_with_root_counts(self):
        lat = ModeLattice(n_modes=100_000, nu_b=20e3, nu_s0=CARRIER)
        assert resolution_estimate(lat, 10_000) == pytest.approx(5e-12, rel=1e-12)

    def test_validation(self):
        lat = ModeLattice(n_modes=100_000, nu_b=20e3, nu_s0=CARRIER)
        with pytest.raises(ValueError):
            resolution_estimate(lat, 0)
        single = ModeLattice(n_modes=1, nu_b=20e3, nu_s0=CARRIER)
        with pytest.raises(ValueError):
            resolution_estimate(single, 100)
