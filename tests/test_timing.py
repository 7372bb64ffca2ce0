"""Tests for the Poisson template fit of the comb."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ghostcomb import (
    CoincidenceHistogram,
    CombFit,
    DetectorGeometry,
    ModeLattice,
    build_histogram,
    comb_peak_width,
    fit_comb,
    g2_closed,
    sample_pairs,
)
from ghostcomb.detection import StreamWithSingles
from ghostcomb.lattice import SPEED_OF_LIGHT
from ghostcomb.seeding import LABEL_ACCIDENTAL_DET1, LABEL_ACCIDENTAL_DET2

CARRIER = 2.82e14
LAT10 = ModeLattice(n_modes=10, nu_b=20e3, nu_s0=CARRIER)
LAT1000 = ModeLattice(n_modes=1000, nu_b=20e3, nu_s0=CARRIER)
PERIOD = 1.0 / LAT10.nu_b
WIDTH10 = comb_peak_width(LAT10)


def synthetic_histogram(
    offset=0.0, lattice=LAT10, tau_min=-1.25e-4, tau_max=1.25e-4, bins_per_width=25
):
    """Noise-free histogram: counts trace the comb at the offset on a
    flat floor, at a scale where rounding to integers barely shows."""
    h = comb_peak_width(lattice) / bins_per_width
    n_bins = int(round((tau_max - tau_min) / h))
    taus = tau_min + (np.arange(n_bins) + 0.5) * h
    mean = 1e9 * np.asarray(g2_closed(lattice, taus - offset)) + 1e3
    counts = np.round(mean).astype(np.int64)
    return CoincidenceHistogram(h, tau_min, tau_max, counts)


def fit10(hist):
    return fit_comb(hist, LAT10.n_modes, LAT10.nu_b)


class TestFitComb:
    def test_exact_grid(self):
        fit = fit10(synthetic_histogram())
        assert isinstance(fit, CombFit)
        assert fit.nu_b_est == pytest.approx(20e3, rel=1e-9)
        assert abs(fit.offset_est) < 1e-8 * WIDTH10
        assert fit.offset_period == pytest.approx(PERIOD, rel=1e-9)
        assert 0 < fit.offset_stderr < 1e-5 * WIDTH10
        assert 0 < fit.nu_b_stderr < 1e-5 * LAT10.nu_b
        assert fit.deviance_per_dof < 1e-3

    def test_recovers_offset(self):
        fit = fit10(synthetic_histogram(offset=1e-8))
        assert fit.offset_est == pytest.approx(1e-8, abs=1e-8 * WIDTH10)
        assert fit.nu_b_est == pytest.approx(20e3, rel=1e-9)

    def test_period_relabeling_leaves_offset(self):
        # The same comb seen through a delay range seven periods later.
        base = fit10(synthetic_histogram(offset=2e-9))
        shifted = fit10(
            synthetic_histogram(
                offset=2e-9, tau_min=-1.25e-4 + 7 * PERIOD, tau_max=1.25e-4 + 7 * PERIOD
            )
        )
        assert shifted.offset_est == pytest.approx(base.offset_est, abs=1e-8 * WIDTH10)
        assert shifted.nu_b_est == pytest.approx(base.nu_b_est, rel=1e-9)

    def test_principal_interval(self):
        fit = fit10(synthetic_histogram(offset=0.6 * PERIOD))
        assert fit.offset_est == pytest.approx(-0.4 * PERIOD, abs=1e-8 * WIDTH10)
        fit = fit10(synthetic_histogram(offset=-0.6 * PERIOD))
        assert fit.offset_est == pytest.approx(0.4 * PERIOD, abs=1e-8 * WIDTH10)
        # On the boundary either end is the same comb; the reported one
        # lies in (-period/2, period/2] of the fitted period.
        top = fit10(synthetic_histogram(offset=0.5 * PERIOD))
        assert -0.5 * top.offset_period < top.offset_est <= 0.5 * top.offset_period
        assert abs(top.offset_est) == pytest.approx(0.5 * PERIOD, abs=1e-8 * WIDTH10)

    @settings(max_examples=100, deadline=None)
    @given(delta=st.floats(min_value=-1.2e-5, max_value=1.2e-5, allow_nan=False))
    # Optimal at step 2; later steps' gains lie below the deviance's resolution.
    @example(delta=9.926437571526352e-07)
    def test_shift_equivariance(self, delta):
        fit = fit10(synthetic_histogram(offset=delta))
        assert fit.offset_est == pytest.approx(delta, abs=1e-8 * WIDTH10)

    def test_degenerate_sets(self):
        hist = synthetic_histogram()
        with pytest.raises(ValueError, match="at least 2 modes"):
            fit_comb(hist, 1, 20e3)
        with pytest.raises(ValueError, match="nu_b"):
            fit_comb(hist, 10, -5.0)

    def test_flat_histogram(self):
        h = CoincidenceHistogram(1e-7, -1.25e-4, 1.25e-4, np.full(2500, 7), {})
        with pytest.raises(ValueError, match="flat"):
            fit10(h)

    def test_coarse_binning(self):
        hist = synthetic_histogram(bins_per_width=9)
        with pytest.raises(ValueError, match="coarse"):
            fit10(hist)
        fit10(synthetic_histogram(bins_per_width=11))

    def test_short_range(self):
        with pytest.raises(ValueError, match="two comb periods"):
            fit10(synthetic_histogram(tau_min=-0.99 * PERIOD, tau_max=0.99 * PERIOD))

    def test_end_to_end_offset_recovery(self):
        true_offset = 1e-8
        geom = DetectorGeometry(r1=true_offset * SPEED_OF_LIGHT, r2=0.0)
        s1, s2 = sample_pairs(LAT10, geom, 0.05, 1e6, 0.0, seed=55)
        hist = build_histogram(s1, s2, WIDTH10 / 25, -1.25e-4, 1.25e-4)
        fit = fit10(hist)
        assert abs(fit.offset_est - true_offset) < 3 * fit.offset_stderr

    def test_memory_is_a_fraction_of_one_bin_array(self):
        # 1e6 bins over two periods. The fit works in blocks of bins and
        # folds into 10 N phase bins, so it holds less than one
        # bin-length float array at a time; a (bins x 4) Jacobian alone
        # would take four.
        n_bins = 10**6
        hist = synthetic_histogram(
            offset=3e-9, lattice=LAT1000, tau_min=-PERIOD, tau_max=PERIOD,
            bins_per_width=n_bins / (2 * LAT1000.n_modes),
        )
        assert hist.counts.size == n_bins
        tracemalloc.start()
        try:
            fit = fit_comb(hist, LAT1000.n_modes, LAT1000.nu_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.offset_est == pytest.approx(3e-9, abs=1e-8 * comb_peak_width(LAT1000))
        assert peak < 8 * n_bins


def cramer_rao_sigma(lattice, pairs):
    """Least offset error for this many pairs drawn from the comb.

    The delay density is f^2 / int f^2 with f the Dirichlet amplitude
    sin(N pi nu_b tau) / sin(pi nu_b tau), so one pair carries Fisher
    information 4 int f'^2 / int f^2 about the offset. Integrated over
    one period at 200 points per tooth width.
    """
    n, nu_b = lattice.n_modes, lattice.nu_b
    step = 1.0 / (200 * n * nu_b)
    taus = (np.arange(-100 * n, 100 * n) + 0.5) * step
    f = np.sin(n * np.pi * nu_b * taus) / np.sin(np.pi * nu_b * taus)
    info = 4.0 * np.sum(np.gradient(f, step) ** 2) / np.sum(f**2)
    return 1.0 / math.sqrt(pairs * info)


SEEDS = range(1, 41)


@pytest.fixture(scope="module")
def sparse_fits():
    """N=1000, 4 Hz for 2.5e4 s (1e5 pairs), a 10 ns offset, no floor."""
    geom = DetectorGeometry(r1=10e-9 * SPEED_OF_LIGHT, r2=0.0)
    out = []
    for seed in SEEDS:
        s1, s2 = sample_pairs(LAT1000, geom, 4.0, 2.5e4, 0.0, seed)
        hist = build_histogram(s1, s2, 5e-9, -1.25e-4, 1.25e-4)
        fit = fit_comb(hist, LAT1000.n_modes, LAT1000.nu_b)
        out.append((fit.offset_est - geom.retarded_offset, fit.offset_stderr,
                    hist.total_pairs))
    return np.array(out)


@pytest.fixture(scope="module")
def dense_fits():
    """The sim-dense rates over 25 s: 1e4 pairs with 2 ns jitter among
    4.1e5 events per detector, and a 10 ns offset."""
    geom = DetectorGeometry(r1=3.0, r2=0.0)
    out = []
    for seed in SEEDS:
        s1, s2 = sample_pairs(LAT1000, geom, 400.0, 25.0, 2e-9, seed)
        s1 = StreamWithSingles(s1, 16000.0, seed, LABEL_ACCIDENTAL_DET1)
        s2 = StreamWithSingles(s2, 16000.0, seed, LABEL_ACCIDENTAL_DET2)
        hist = build_histogram(s1, s2, 5e-9, -1.25e-4, 1.25e-4)
        fit = fit_comb(hist, LAT1000.n_modes, LAT1000.nu_b)
        out.append((fit.offset_est - geom.retarded_offset, fit.offset_stderr,
                    fit.deviance_per_dof))
    return np.array(out)


@pytest.mark.parametrize("regime", ["sparse_fits", "dense_fits"])
def test_offset_pulls_have_unit_spread(regime, request):
    errors, stderrs, _ = request.getfixturevalue(regime).T
    pulls = errors / stderrs
    assert 0.75 <= np.std(pulls, ddof=1) <= 1.25
    assert abs(np.mean(pulls)) < 3 / math.sqrt(len(pulls))


def test_sparse_stderr_at_cramer_rao_bound(sparse_fits):
    _, stderrs, pairs = sparse_fits.T
    bound = np.mean([cramer_rao_sigma(LAT1000, n) for n in pairs])
    assert np.mean(stderrs) == pytest.approx(bound, rel=0.1)


def test_dense_deviance_per_dof_near_one(dense_fits):
    assert np.all(np.abs(dense_fits[:, 2] - 1.0) < 0.05)
