"""Tests for the mode lattice and detector geometry."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghostcomb import DetectorGeometry, ModeLattice, mode_frequencies, retarded_tau


def make_lattice(**kwargs):
    defaults = dict(n_modes=3, nu_b=20e3, nu_s0=2.82e14)
    defaults.update(kwargs)
    return ModeLattice(**defaults)


class TestModeLattice:
    def test_defaults_are_valid(self):
        lat = make_lattice()
        assert lat.n_modes == 3
        assert lat.delta_nu == 0.0
        assert lat.profile == "rectangular"

    def test_pump_derived_from_signal_center(self):
        lat = make_lattice()
        assert lat.nu_p == 2.0 * lat.nu_s0

    def test_explicit_consistent_pump_accepted(self):
        lat = make_lattice(nu_p=2 * 2.82e14)
        assert lat.nu_p == 2 * 2.82e14

    def test_inconsistent_pump_rejected(self):
        with pytest.raises(ValueError, match="nu_p"):
            make_lattice(nu_p=2.82e14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_modes=0),
            dict(n_modes=-5),
            dict(n_modes=2.5),
            dict(n_modes=True),
            dict(nu_b=0.0),
            dict(nu_b=-1.0),
            dict(nu_s0=0.0),
            dict(delta_nu=-1.0),
            dict(delta_nu=float("nan")),
            dict(nu_b=100.0, delta_nu=100.0),
            dict(profile="gaussian"),
            dict(nu_b=float("inf")),
            dict(nu_s0=float("inf")),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            make_lattice(**kwargs)

    def test_omega_b(self):
        lat = make_lattice(nu_b=20e3)
        assert lat.omega_b == pytest.approx(2 * np.pi * 20e3, rel=1e-15)

    def test_detunings_grid(self):
        lat = make_lattice(n_modes=4, nu_b=100.0)
        assert np.array_equal(lat.detunings(), [0.0, 100.0, 200.0, 300.0])


class TestModeFrequencies:
    def test_single_pair_degenerate(self):
        lat = make_lattice(n_modes=1, nu_s0=1e14)
        freqs = mode_frequencies(lat)
        assert freqs.shape == (1, 2)
        assert freqs[0, 0] == 1e14
        assert freqs[0, 1] == 1e14

    def test_three_pairs_mirror_around_center(self):
        lat = make_lattice(n_modes=3, nu_b=20e3, nu_s0=1e14)
        freqs = mode_frequencies(lat)
        assert np.array_equal(freqs[:, 0], [1e14, 1e14 + 20e3, 1e14 + 40e3])
        assert np.array_equal(freqs[:, 1], [1e14, 1e14 - 20e3, 1e14 - 40e3])

    def test_signal_strictly_increasing(self):
        freqs = mode_frequencies(make_lattice(n_modes=16))
        assert np.all(np.diff(freqs[:, 0]) > 0)

    @given(
        n=st.integers(min_value=1, max_value=500),
        nu_b=st.floats(min_value=1.0, max_value=1e6),
        nu_s0=st.floats(min_value=1e9, max_value=1e15),
    )
    def test_energy_conservation_exact(self, n, nu_b, nu_s0):
        lat = ModeLattice(n_modes=n, nu_b=nu_b, nu_s0=nu_s0)
        freqs = mode_frequencies(lat)
        # Detuning-based construction keeps each pair sum exact.
        assert np.all(freqs.sum(axis=1) == lat.nu_p)


class TestRetardedTau:
    def test_equal_everything_gives_zero(self):
        geom = DetectorGeometry(r1=0.0, r2=0.0)
        assert retarded_tau(geom, 5.0, 5.0) == 0.0

    def test_pure_path_delay(self):
        geom = DetectorGeometry(r1=3.0, r2=0.0, c=3e8)
        assert retarded_tau(geom, 1.0, 1.0) == pytest.approx(-1e-8, rel=1e-12)

    def test_time_difference_passes_through(self):
        geom = DetectorGeometry(r1=7.0, r2=7.0)
        assert retarded_tau(geom, 1.0 + 50e-6, 1.0) == pytest.approx(50e-6, rel=1e-12)

    @given(
        r1=st.floats(min_value=0, max_value=1e6),
        r2=st.floats(min_value=0, max_value=1e6),
        t1=st.floats(min_value=-10, max_value=10),
        t2=st.floats(min_value=-10, max_value=10),
    )
    def test_antisymmetric_under_swap(self, r1, r2, t1, t2):
        a = retarded_tau(DetectorGeometry(r1=r1, r2=r2), t1, t2)
        b = retarded_tau(DetectorGeometry(r1=r2, r2=r1), t2, t1)
        assert a == -b

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DetectorGeometry(r1=-1.0, r2=0.0)
        with pytest.raises(ValueError):
            DetectorGeometry(r1=float("nan"), r2=0.0)
        with pytest.raises(ValueError):
            DetectorGeometry(r1=0.0, r2=float("inf"))
        with pytest.raises(ValueError):
            DetectorGeometry(r1=0.0, r2=0.0, c=0.0)
        with pytest.raises(ValueError):
            DetectorGeometry(r1=0.0, r2=0.0, c=float("inf"))

    def test_retarded_offset(self):
        geom = DetectorGeometry(r1=3.0, r2=0.0, c=2.998e8)
        assert geom.retarded_offset == pytest.approx(3.0 / 2.998e8, rel=1e-15)
