"""Mode lattice and detector geometry.

A resonator with free spectral range nu_b supports N signal/idler mode pairs
around the degenerate point nu_s0 = nu_p/2. Pair n puts its signal at
nu_s0 + n*nu_b and its idler at nu_s0 - n*nu_b, so every pair sums to the pump
frequency exactly. The comb depends only on the detunings n*nu_b and on the
retarded delay tau = (t1 - t2) - (r1 - r2)/c, so the package never forms
absolute optical frequencies (~1e14 Hz): a 20 kHz spacing is below the
double-precision ulp of the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

_PROFILES = ("rectangular",)


@dataclass(frozen=True)
class ModeLattice:
    """Frequency lattice of N signal/idler mode pairs.

    n_modes   -- number of pairs N (>= 1)
    nu_b      -- mode spacing in Hz (finite, > 0); angular spacing is 2*pi*nu_b
    nu_s0     -- signal central frequency in Hz (finite, > 0)
    delta_nu  -- per-mode spectral linewidth in Hz (0 = monochromatic modes)
    nu_p      -- pump frequency; must equal 2*nu_s0 exactly (degenerate pairing)
    profile   -- per-mode spectral profile tag ("rectangular" is the only one)
    """

    n_modes: int
    nu_b: float
    nu_s0: float
    delta_nu: float = 0.0
    nu_p: float | None = None
    profile: str = "rectangular"

    def __post_init__(self) -> None:
        if not isinstance(self.n_modes, (int, np.integer)) or isinstance(self.n_modes, bool):
            raise ValueError(f"n_modes must be an integer, got {self.n_modes!r}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not 0.0 < self.nu_b < math.inf:
            raise ValueError(f"nu_b must be finite and > 0, got {self.nu_b}")
        if not 0.0 < self.nu_s0 < math.inf:
            raise ValueError(f"nu_s0 must be finite and > 0, got {self.nu_s0}")
        if not 0.0 <= self.delta_nu < math.inf:
            raise ValueError(f"delta_nu must be finite and >= 0, got {self.delta_nu}")
        if self.delta_nu >= self.nu_b:
            raise ValueError(
                f"delta_nu ({self.delta_nu}) must stay below the mode spacing "
                f"nu_b ({self.nu_b}); modes would overlap"
            )
        if self.nu_p is None:
            object.__setattr__(self, "nu_p", 2.0 * self.nu_s0)
        elif self.nu_p != 2.0 * self.nu_s0:
            raise ValueError(
                f"nu_p must equal 2*nu_s0 exactly (degenerate pairing): "
                f"got nu_p={self.nu_p}, 2*nu_s0={2.0 * self.nu_s0}"
            )
        if self.profile not in _PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; supported: {_PROFILES}"
            )


@dataclass(frozen=True)
class DetectorGeometry:
    """Optical path lengths from the source to the two detectors.

    r1, r2 -- path lengths in meters (>= 0)
    c      -- propagation speed in m/s (finite, > 0)
    """

    r1: float
    r2: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if not (0.0 <= self.r1 < math.inf and 0.0 <= self.r2 < math.inf):
            raise ValueError(
                f"path lengths must be finite and >= 0, got r1={self.r1}, r2={self.r2}"
            )
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and > 0, got {self.c}")

    @property
    def retarded_offset(self) -> float:
        """Path-delay offset (r1 - r2)/c in seconds."""
        return (self.r1 - self.r2) / self.c

