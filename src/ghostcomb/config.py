"""Run configuration: flat key=value files plus CLI overrides.

A config file is a plain text file of `key = value` lines; blank lines
and `#` comments are ignored. Every key has a typed default below, and
unknown keys are rejected by name so typos fail loudly. Values given on
the command line (via dedicated flags or repeated `--set key=value`)
override file values; the effective configuration is echoed into each
run's manifest so a run is reproducible from the manifest alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .fock import _MAX_CUTOFF
from .lattice import SPEED_OF_LIGHT, DetectorGeometry, ModeLattice

_METHODS = ("closed", "direct", "mc", "fock", "all")

# Most points on a curve grid; the largest grid in use has about 1e6.
_MAX_POINTS = 10**7
# Most mc realizations per point: the jackknife holds about 80 bytes per
# realization, so 80 MB per point in flight.
_MAX_MC_REALIZATIONS = 10**6
# Most expected events per detector in `simulate`: a stream holds 8
# bytes per event, so 0.8 GB, and one stream is held at a time.
_MAX_EVENTS = 10**8
# Most levels in the fidelity diagnostic's states: its cost and memory
# grow with the cutoff (about 80 bytes per level), and 120 is the default.
_MAX_FIDELITY_CUTOFF = 10**4
# Most worker threads accepted at load; map_ordered further clamps the
# pool to the CPU count and the number of work items.
_MAX_THREADS = 1024


@dataclass
class RunConfig:
    """Typed view of every tunable parameter, with defaults.

    Field names double as config-file keys. Units are spelled out in
    the suffix (hz, s, m, mps) wherever a quantity is dimensional.
    """

    # Mode lattice and detector geometry.
    n_modes: int = 1000
    nu_b_hz: float = 20e3
    nu_s0_hz: float = 2.82e14
    delta_nu_hz: float = 0.0
    profile: str = "rectangular"
    r1_m: float = 0.0
    r2_m: float = 0.0
    c_mps: float = SPEED_OF_LIGHT

    # Correlation curve grid.
    tau_min_s: float = -1.25e-4
    tau_max_s: float = 1.25e-4
    n_points: int = 100001
    method: str = "closed"
    mc_realizations: int = 2000

    # Detection experiment.
    pair_rate_hz: float = 4.0
    duration_s: float = 2.5e5
    jitter_sigma_s: float = 0.0
    window_periods: float = 5.0
    accidental_rate_hz: float = 0.0
    bin_width_s: float = 5e-9
    contrast_floor: int = 1000

    # Fock oracle and fidelity diagnostics.
    oracle_pairs: int = 3
    oracle_alpha: float = 0.01
    oracle_cutoff: int = 6
    oracle_n_points: int = 401
    fidelity_n: int = 50
    fidelity_cutoff: int = 120

    # Run control.
    seed: int = 12345
    threads: int = 1
    out_dir: str = "runs"

    def lattice(self) -> ModeLattice:
        return ModeLattice(
            n_modes=self.n_modes,
            nu_b=self.nu_b_hz,
            nu_s0=self.nu_s0_hz,
            delta_nu=self.delta_nu_hz,
            profile=self.profile,
        )

    def geometry(self) -> DetectorGeometry:
        return DetectorGeometry(r1=self.r1_m, r2=self.r2_m, c=self.c_mps)

    def oracle_lattice(self) -> ModeLattice:
        return ModeLattice(
            n_modes=self.oracle_pairs,
            nu_b=self.nu_b_hz,
            nu_s0=self.nu_s0_hz,
            delta_nu=0.0,
        )

    def validate(self) -> "RunConfig":
        """Cross-field checks beyond what the dataclass types enforce."""
        for key, kind in _FIELD_TYPES.items():
            if kind == "float" and not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        self.lattice()
        self.geometry()
        if self.method not in _METHODS:
            raise ValueError(
                f"method must be one of {', '.join(_METHODS)}; got {self.method!r}"
            )
        if not self.tau_max_s > self.tau_min_s:
            raise ValueError("tau_max_s must exceed tau_min_s")
        if not 2 <= self.n_points <= _MAX_POINTS:
            raise ValueError(f"n_points must lie in [2, {_MAX_POINTS}]")
        if not 2 <= self.mc_realizations <= _MAX_MC_REALIZATIONS:
            raise ValueError(f"mc_realizations must lie in [2, {_MAX_MC_REALIZATIONS}]")
        if self.pair_rate_hz <= 0:
            raise ValueError("pair_rate_hz must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.jitter_sigma_s < 0:
            raise ValueError("jitter_sigma_s must be non-negative")
        if self.window_periods <= 0:
            raise ValueError("window_periods must be positive")
        if self.accidental_rate_hz < 0:
            raise ValueError("accidental_rate_hz must be non-negative")
        events = (self.pair_rate_hz + self.accidental_rate_hz) * self.duration_s
        if events > _MAX_EVENTS:
            raise ValueError(
                f"(pair_rate_hz + accidental_rate_hz) * duration_s gives {events:.3g} "
                f"expected events per detector; at most {_MAX_EVENTS:.0e} are allowed"
            )
        if self.bin_width_s <= 0:
            raise ValueError("bin_width_s must be positive")
        if self.contrast_floor < 1:
            raise ValueError("contrast_floor must be positive")
        if self.oracle_pairs < 1:
            raise ValueError("oracle_pairs must be positive")
        if self.oracle_alpha <= 0:
            raise ValueError("oracle_alpha must be positive")
        if not 0 <= self.oracle_cutoff <= _MAX_CUTOFF:
            raise ValueError(f"oracle_cutoff must lie in [0, {_MAX_CUTOFF}]")
        if not 2 <= self.oracle_n_points <= _MAX_POINTS:
            raise ValueError(f"oracle_n_points must lie in [2, {_MAX_POINTS}]")
        if self.fidelity_n < 0:
            raise ValueError("fidelity_n must be non-negative")
        if not 0 <= self.fidelity_cutoff <= _MAX_FIDELITY_CUTOFF:
            raise ValueError(f"fidelity_cutoff must lie in [0, {_MAX_FIDELITY_CUTOFF}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.threads <= _MAX_THREADS:
            raise ValueError(f"threads must lie in [0, {_MAX_THREADS}] (0 = auto)")
        return self

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(RunConfig)}


def _coerce(key: str, text: str):
    """Parse a raw string into the declared type of the config key."""
    kind = _FIELD_TYPES[key]
    text = text.strip()
    if kind == "int":
        value = float(text)
        if not math.isfinite(value) or value != int(value):
            raise ValueError(f"config key {key!r} expects an integer, got {text!r}")
        return int(value)
    if kind == "float":
        return float(text)
    return text


def parse_overrides(pairs) -> dict:
    """Turn `key=value` strings (from --set flags) into typed values."""
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key: {key!r}")
        out[key] = _coerce(key, text)
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides."""
    values = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key: {key!r}")
            values[key] = _coerce(key, text)
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key: {key!r}")
            values[key] = value if not isinstance(value, str) else _coerce(key, value)
    return RunConfig(**values).validate()
