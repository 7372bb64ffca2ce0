"""Tests for the correlation evaluators and comb descriptors."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghostcomb import (
    CorrelationCurve,
    DetectorGeometry,
    ModeLattice,
    beat_phase,
    comb_peak_positions,
    comb_peak_width,
    curve,
    dirichlet_kernel,
    envelope_first_zero,
    envelope_fwhm,
    g2_closed,
    g2_mc_envelope,
    psi_direct,
)
from ghostcomb import correlation
from ghostcomb.correlation import SINC_SQ_HALF_POWER, _mc_amplitudes
from ghostcomb.seeding import LABEL_MC_ENVELOPE, derive_rng

CARRIER = 2.82e14


def lattice(n, nu_b=20e3, delta_nu=0.0):
    return ModeLattice(n_modes=n, nu_b=nu_b, nu_s0=CARRIER, delta_nu=delta_nu)


class TestDirichletKernel:
    def test_limit_at_origin(self):
        assert dirichlet_kernel(5, 0.0) == pytest.approx(25.0, rel=1e-12)

    def test_single_mode_flat(self):
        assert dirichlet_kernel(1, 1.234) == pytest.approx(1.0, rel=1e-12)

    def test_interior_zero(self):
        assert dirichlet_kernel(4, math.pi / 2) < 1e-25

    def test_periodic_maxima(self):
        for k in (-2, -1, 1, 2):
            assert dirichlet_kernel(7, 2 * math.pi * k) == pytest.approx(49.0, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-7.0, 7.0, 101)
        vec = dirichlet_kernel(9, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == dirichlet_kernel(9, float(x))

    def test_bounds(self):
        xs = np.linspace(-20, 20, 4001)
        vals = np.asarray(dirichlet_kernel(31, xs))
        assert np.all(vals >= 0)
        assert np.all(vals <= 31**2 * (1 + 1e-12))

    def test_invalid_mode_count(self):
        with pytest.raises(ValueError):
            dirichlet_kernel(0, 1.0)
        with pytest.raises(ValueError):
            dirichlet_kernel(2**27, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        x=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    def test_direct_sum_identity(self, n, x):
        # |sum of N unit phasors|^2 equals the closed kernel. Relative
        # tolerance applies down to 1e-12 of the peak; below that both
        # paths sit in float cancellation noise of the same magnitude.
        lat = ModeLattice(n_modes=n, nu_b=1.0 / (2 * math.pi), nu_s0=CARRIER)
        direct = abs(psi_direct(lat, x, 0.0)) ** 2
        kernel = dirichlet_kernel(n, beat_phase(lat.nu_b, x))
        assert abs(direct - kernel) <= 1e-9 * max(kernel, 1e-12 * n * n)


class TestPsiDirect:
    def test_constructive_sum(self):
        lat = lattice(2)
        assert abs(psi_direct(lat, 0.0, 0.0)) ** 2 == pytest.approx(4.0, rel=1e-12)

    def test_two_mode_destructive(self):
        lat = lattice(2, nu_b=1.0)
        tau = 0.5  # omega_b * tau = pi
        assert abs(psi_direct(lat, tau, 0.0)) ** 2 < 1e-28

    def test_large_lattice_matches_kernel(self):
        lat = lattice(1000)
        tau = (2 * math.pi / 3000) / (2 * math.pi * lat.nu_b)
        direct = abs(psi_direct(lat, tau, 0.0)) ** 2
        kernel = dirichlet_kernel(1000, beat_phase(lat.nu_b, tau))
        assert direct == pytest.approx(kernel, rel=1e-9)

    def test_pump_phase_has_unit_modulus(self):
        lat = lattice(16)
        value = psi_direct(lat, 1.0e-5, 0.3e-5)
        lone = psi_direct(lattice(1), 1.0e-5, 0.3e-5)
        assert abs(lone) == pytest.approx(1.0, rel=1e-12)
        assert abs(value) <= 16 * (1 + 1e-12)

    def test_magnitude_independent_of_carrier(self):
        for nu_s0 in (1e13, 2.82e14, 5e14):
            lat = ModeLattice(n_modes=64, nu_b=20e3, nu_s0=nu_s0)
            mag = abs(psi_direct(lat, 1.7e-5, 0.0)) ** 2
            ref = abs(psi_direct(lattice(64), 1.7e-5, 0.0)) ** 2
            assert mag == pytest.approx(ref, rel=1e-12)

    def test_rejects_finite_linewidth(self):
        with pytest.raises(ValueError, match="zero-linewidth"):
            psi_direct(lattice(4, delta_nu=10.0), 0.0, 0.0)


class TestG2Closed:
    def test_central_peak_is_one(self):
        assert g2_closed(lattice(12), 0.0) == 1.0
        assert g2_closed(lattice(12, delta_nu=100.0), 0.0) == 1.0

    def test_first_zero_adjacent_to_peak(self):
        lat = lattice(100_000)
        assert g2_closed(lat, 1.0 / (100_000 * 20e3)) < 1e-15

    def test_envelope_value_at_first_side_peak(self):
        lat = lattice(100_000, delta_nu=200.0)
        # At the n=1 comb peak only the sinc^2 envelope deviates from 1.
        expected = 0.9996710564765076
        assert g2_closed(lat, 50e-6) == pytest.approx(expected, rel=1e-9)

    def test_periodicity(self):
        lat = lattice(250)
        period = 1.0 / lat.nu_b
        taus = np.array([0.0, 1.3e-6, 2.49e-5, 4.0e-5])
        for k in (1, -2, 5):
            a = np.asarray(g2_closed(lat, taus))
            b = np.asarray(g2_closed(lat, taus + k * period))
            assert np.max(np.abs(a - b)) < 1e-9

    def test_zero_set_between_peaks(self):
        n = 100
        lat = lattice(n)
        ks = [k for k in range(1, 3 * n) if k % n != 0]
        taus = np.array(ks) / (n * lat.nu_b)
        vals = np.asarray(g2_closed(lat, taus))
        assert np.max(vals) < 1e-12

    def test_unit_peaks_with_exact_interior_zeros(self):
        # 100% contrast: unit maxima with sub-1e-12 points between them.
        for n in (2, 7, 64):
            lat = lattice(n)
            assert g2_closed(lat, 1.0 / lat.nu_b) == pytest.approx(1.0, rel=1e-9)
            assert g2_closed(lat, 1.0 / (n * lat.nu_b)) < 1e-12

    def test_envelope_limit_small_linewidth(self):
        taus = np.linspace(-5e-5, 5e-5, 501)
        narrow = np.asarray(g2_closed(lattice(32, delta_nu=1e-4), taus))
        none = np.asarray(g2_closed(lattice(32), taus))
        assert np.max(np.abs(narrow - none)) < 1e-12

    def test_vectorization(self):
        lat = lattice(40, delta_nu=50.0)
        taus = np.linspace(-1e-4, 1e-4, 17)
        vec = np.asarray(g2_closed(lat, taus))
        scalars = np.array([g2_closed(lat, float(t)) for t in taus])
        assert np.array_equal(vec, scalars)


class TestCombDescriptors:
    def test_peak_positions_centered(self):
        lat = lattice(10)
        geom = DetectorGeometry(r1=0.0, r2=0.0)
        got = comb_peak_positions(lat, geom, [-1, 0, 1])
        assert np.allclose(got, [-50e-6, 0.0, 50e-6], rtol=1e-12, atol=0)

    def test_zeroth_peak_is_path_offset(self):
        geom = DetectorGeometry(r1=7.5, r2=1.5, c=3e8)
        got = comb_peak_positions(lattice(10), geom, [0])
        assert got[0] == pytest.approx(2e-8, rel=1e-12)

    def test_plugin_arithmetic(self):
        geom = DetectorGeometry(r1=3.0, r2=0.0, c=3e8)
        got = comb_peak_positions(lattice(10), geom, [2])
        assert got[0] == pytest.approx(1e-4 + 1e-8, rel=1e-12)

    def test_peak_width_values(self):
        assert comb_peak_width(lattice(100_000)) == pytest.approx(500e-12, rel=1e-12)
        assert comb_peak_width(ModeLattice(n_modes=2, nu_b=1.0, nu_s0=CARRIER)) == 0.5

    def test_peak_width_matches_first_zero_of_curve(self):
        lat = lattice(10)
        step = 5e-8
        taus = np.arange(1, 2000) * step
        vals = np.asarray(g2_closed(lat, taus))
        first = taus[np.argmax(vals < 1e-12)]
        assert abs(first - comb_peak_width(lat)) <= step

    def test_peak_width_needs_comb(self):
        with pytest.raises(ValueError):
            comb_peak_width(lattice(1))

    def test_envelope_descriptors(self):
        lat = lattice(10, delta_nu=200.0)
        assert envelope_first_zero(lat) == pytest.approx(5e-3, rel=1e-12)
        expected_fwhm = 2 * SINC_SQ_HALF_POWER / (math.pi * 200.0)
        assert envelope_fwhm(lat) == pytest.approx(expected_fwhm, rel=1e-12)
        assert envelope_fwhm(lat) == pytest.approx(4.429464706894522e-3, rel=1e-12)
        assert envelope_first_zero(lattice(10)) == math.inf
        assert envelope_fwhm(lattice(10)) == math.inf

    def test_beat_phase(self):
        assert beat_phase(20e3, 50e-6) == pytest.approx(2 * math.pi, rel=1e-15)
        arr = beat_phase(1.0, np.array([0.0, 0.25]))
        assert np.allclose(arr, [0.0, math.pi / 2], rtol=1e-15, atol=0)


class TestMcEnvelope:
    LAT = ModeLattice(n_modes=64, nu_b=20e3, nu_s0=CARRIER, delta_nu=200.0)

    def test_rejects_zero_linewidth(self):
        with pytest.raises(ValueError, match="linewidth"):
            g2_mc_envelope(lattice(8), 0.0, 100, seed=1)

    def test_rejects_too_few_realizations(self):
        with pytest.raises(ValueError, match="at least 3 realizations for the jackknife"):
            g2_mc_envelope(self.LAT, 0.0, 2, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            g2_mc_envelope(self.LAT, 0.0, 100, seed=-3)

    def test_peak_estimate(self):
        mean, stderr = g2_mc_envelope(self.LAT, 0.0, 2000, seed=2024)
        assert abs(mean - 1.0) <= 3 * stderr
        assert 0 < stderr < 0.1

    def test_far_tail_estimate(self):
        tau = 100.0 / self.LAT.delta_nu
        mean, stderr = g2_mc_envelope(self.LAT, tau, 2000, seed=2024)
        assert abs(mean) <= 3 * stderr

    def test_deterministic_and_thread_invariant(self):
        # The same seed gives the same estimate, on the calling thread
        # or on pool threads, as curve() runs it.
        a = g2_mc_envelope(self.LAT, 5e-5, 1500, seed=77)
        with ThreadPoolExecutor(2) as pool:
            b, c = pool.map(lambda _: g2_mc_envelope(self.LAT, 5e-5, 1500, seed=77), [0, 1])
        assert a == b == c

    def test_different_seeds_differ(self):
        a = g2_mc_envelope(self.LAT, 0.0, 500, seed=1)
        b = g2_mc_envelope(self.LAT, 0.0, 500, seed=2)
        assert a != b


class ForcedEpochs:
    """Stands in for a chunk's generator: its uniform draws are given.

    Each draw of (rows, n) hands out the next rows of t0; `consumed`
    says whether every row was handed out.
    """

    def __init__(self, t0):
        self.t0 = t0
        self.row = 0

    def uniform(self, low, high, size):
        rows, n = size
        assert n == self.t0.shape[1] and self.row + rows <= self.t0.shape[0]
        self.row += rows
        return self.t0[self.row - rows : self.row].copy()

    @property
    def consumed(self):
        return self.row == self.t0.shape[0]


class TestMcSampler:
    """One sampler chunk against the two-sinc, complex-matvec form."""

    LAT = ModeLattice(n_modes=200, nu_b=20e3, nu_s0=CARRIER, delta_nu=200.0)
    TAUS = [0.0, 3.7e-5, -1.25e-4, 2.5e-3, 5e-3, 0.02, 0.1]
    ROWS = 70  # two full row blocks of the sampler and a partial one

    def window(self, tau):
        return 100.0 / self.LAT.delta_nu + 4.0 * abs(tau)

    def assert_matches_reference(self, amp, tau, t0):
        dnu, window = self.LAT.delta_nu, self.window(tau)
        t1, t2 = 0.5 * window + 0.5 * tau, 0.5 * window - 0.5 * tau
        x = float(beat_phase(self.LAT.nu_b, tau))
        phases = np.exp(-1j * np.arange(self.LAT.n_modes) * x)
        w = np.sinc(dnu * (t1 - t0)) * np.sinc(dnu * (t2 - t0))
        ref = w.astype(complex) @ phases
        # Relative to each realization's own amplitude scale |w|, which a
        # sum that happens to cancel does not shrink.
        rel = np.abs(amp - ref) / np.sqrt(np.sum(w * w, axis=1))
        assert np.max(rel) <= 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_drawn_chunk(self, tau):
        window = self.window(tau)
        amp = _mc_amplitudes(self.LAT, tau, window, 11, self.ROWS)
        tau_bits = int(np.float64(tau).view(np.uint64))
        rng = derive_rng(11, LABEL_MC_ENVELOPE, tau_bits, 0)
        t0 = rng.uniform(0.0, window, size=(self.ROWS, self.LAT.n_modes))
        self.assert_matches_reference(amp, tau, t0)

    @pytest.mark.parametrize("tau", TAUS)
    def test_forced_samples_at_and_near_the_singular_points(self, tau, monkeypatch):
        """Epochs at u = 0 (t0 = t1) and u = c (t0 = t2), and just off them."""
        window = self.window(tau)
        t1, t2 = 0.5 * window + 0.5 * tau, 0.5 * window - 0.5 * tau
        offsets = np.concatenate([[0.0], np.logspace(-16, -2, 43)])
        offsets = np.concatenate([offsets, -offsets[1:]])
        centers = [t1, t2, t1 - tau, np.nextafter(t1, 0.0), np.nextafter(t2, 1.0)]
        forced = np.concatenate([c + offsets for c in centers])
        rng = np.random.default_rng(5)
        t0 = rng.uniform(0.0, window, size=(self.ROWS, self.LAT.n_modes))
        t0.ravel()[rng.choice(t0.size, forced.size, replace=False)] = forced
        t0[0] = rng.choice(forced, self.LAT.n_modes)  # a row of nothing else
        epochs = ForcedEpochs(t0)
        monkeypatch.setattr(correlation, "derive_rng", lambda *key: epochs)
        amp = _mc_amplitudes(self.LAT, tau, window, 11, self.ROWS)
        assert epochs.consumed
        self.assert_matches_reference(amp, tau, t0)


class TestCurve:
    GEOM = DetectorGeometry(r1=0.0, r2=0.0)

    def test_direct_matches_closed(self):
        lat = lattice(1000)
        a = curve(lat, self.GEOM, -1.25e-4, 1.25e-4, 4096, "closed")
        b = curve(lat, self.GEOM, -1.25e-4, 1.25e-4, 4096, "direct")
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_peak_normalization_contract(self):
        lat = lattice(50, delta_nu=100.0)
        c = curve(lat, self.GEOM, -6e-5, 6e-5, 501, "closed")
        assert c.normalization == "peak"
        assert abs(c.values.max() - 1.0) <= 1e-12
        assert np.min(c.values) >= 0

    def test_raw_normalization(self):
        # The raw closed form is g2_closed at the retarded delays, as
        # cmd_curve takes it to compare the raw mc curve against.
        lat, geom = lattice(10), DetectorGeometry(r1=3.0, r2=0.0, c=3e8)
        c = curve(lat, geom, -1e-5, 1e-5, 11, "closed")
        raw = g2_closed(lat, c.taus - geom.retarded_offset)
        assert c.normalization == "peak"
        np.testing.assert_array_equal(c.values, raw / np.max(raw))

    def test_geometry_shifts_peak(self):
        geom = DetectorGeometry(r1=3.0, r2=0.0, c=3e8)
        c = curve(lattice(200), geom, -1e-5, 3e-5, 8001, "closed")
        peak_tau = c.taus[np.argmax(c.values)]
        assert peak_tau == pytest.approx(1e-8, abs=c.taus[1] - c.taus[0])

    def test_mc_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            curve(lattice(8, delta_nu=100.0), self.GEOM, -1e-5, 1e-5, 5, "mc")

    def test_mc_curve_has_stderrs(self):
        lat = lattice(16, delta_nu=200.0)
        c = curve(lat, self.GEOM, -1e-5, 1e-5, 5, "mc", n_realizations=200, seed=5)
        assert c.stderrs is not None
        assert c.stderrs.shape == c.values.shape
        assert np.min(c.values) >= 0

    def test_mc_curve_stays_on_the_closed_scale(self):
        """No division by the curve's own maximum, of values or stderrs."""
        lat = lattice(16, delta_nu=200.0)
        c = curve(lat, self.GEOM, -1e-5, 1e-5, 3, "mc", n_realizations=200, seed=5)
        assert c.normalization == "raw"
        for tau, value, stderr in zip(c.taus, c.values, c.stderrs):
            mean, err = g2_mc_envelope(lat, float(tau), 200, seed=5)
            assert (value, stderr) == (max(mean, 0.0), err)

    def test_mc_curve_takes_an_explicit_peak_normalization(self):
        lat = lattice(16, delta_nu=200.0)
        raw = curve(lat, self.GEOM, -1e-5, 1e-5, 3, "mc", n_realizations=200, seed=5)
        peak = raw.peak_normalized()
        assert peak.normalization == "peak"
        assert np.max(peak.values) == 1.0
        scale = np.max(raw.values)
        np.testing.assert_array_equal(peak.stderrs, raw.stderrs / scale)

    def test_fock_matches_closed_small(self):
        lat = lattice(3)
        a = curve(lat, self.GEOM, -2.5e-5, 2.5e-5, 101, "fock", alpha=0.01, cutoff=6)
        b = curve(lat, self.GEOM, -2.5e-5, 2.5e-5, 101, "closed")
        assert np.max(np.abs(a.values - b.values)) < 1e-6

    def test_validation(self):
        lat = lattice(4)
        with pytest.raises(ValueError):
            curve(lat, self.GEOM, 1.0, 0.0, 10, "closed")
        with pytest.raises(ValueError):
            curve(lat, self.GEOM, 0.0, 1.0, 1, "closed")
        with pytest.raises(ValueError):
            curve(lat, self.GEOM, 0.0, 1.0, 10, "nope")


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the pool size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestCurvePool:
    """The mc curve's one pool: at most one thread per point and per CPU."""

    LAT = lattice(4, delta_nu=100.0)
    GEOM = DetectorGeometry(r1=0.0, r2=0.0)

    def mc_curve(self, threads, n_points=3):
        return curve(
            self.LAT, self.GEOM, -1e-5, 1e-5, n_points, "mc",
            n_realizations=8, seed=3, threads=threads,
        )

    @pytest.fixture
    def recorder(self, monkeypatch):
        monkeypatch.setattr(correlation, "ThreadPoolExecutor", RecordingExecutor)
        RecordingExecutor.sizes = []
        return RecordingExecutor

    @pytest.mark.parametrize(
        "threads, cpus, expected",
        [(10**5, 64, 3), (10**5, 2, 2), (1, 8, 1), (8, 1, 1), (0, 2, 2), (0, 64, 3), (8, None, 1)],
    )
    def test_pool_size(self, recorder, monkeypatch, threads, cpus, expected):
        # min(threads, points, CPUs); 0 threads is every CPU, and an
        # unknown CPU count is one.
        monkeypatch.setattr(correlation.os, "cpu_count", lambda: cpus)
        inline = self.mc_curve(threads)
        assert recorder.sizes == [expected]
        monkeypatch.undo()
        pooled = self.mc_curve(2)
        assert inline.values.tobytes() == pooled.values.tobytes()
        assert inline.stderrs.tobytes() == pooled.stderrs.tobytes()

    def test_negative_threads_refused(self, recorder):
        with pytest.raises(ValueError, match="threads"):
            self.mc_curve(-1)
        assert recorder.sizes == []


class TestCorrelationCurve:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.arange(3.0), np.arange(4.0), "raw")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.arange(3.0), np.array([1.0, -0.1, 0.5]), "raw")

    def test_peak_normalized_rescales(self):
        c = CorrelationCurve(np.arange(3.0), np.array([1.0, 4.0, 2.0]), "raw")
        p = c.peak_normalized()
        assert p.values.max() == 1.0
        assert p.normalization == "peak"
        with pytest.raises(ValueError):
            CorrelationCurve(np.arange(2.0), np.zeros(2), "raw").peak_normalized()
