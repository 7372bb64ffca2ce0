"""Tests for the mode lattice and detector geometry."""

import pytest

from ghostcomb import DetectorGeometry, ModeLattice


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


class TestDetectorGeometry:
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
