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
import numbers
import operator
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .correlation import TWO_PI, _MAX_MODES
from .detection import _TOOTH_STEPS, window_error
from .fock import _MAX_CUTOFF, entangled_coherent_pairs, fidelity_report
from .lattice import SPEED_OF_LIGHT, DetectorGeometry, ModeLattice

_METHODS = ("closed", "direct", "mc", "fock", "all")

# Most points on a curve grid; the largest grid in use has about 1e6.
_MAX_POINTS = 10**7
# Most mc realizations per point: the jackknife holds about 80 bytes per
# realization, so 80 MB per point in flight.
_MAX_MC_REALIZATIONS = 10**6
# Most expected events per detector in `simulate`. No stream is held
# whole; the cap bounds each stream file (8 bytes per event, so 0.8 GB),
# the pair streams sample_pairs holds (at most three pair-sized arrays)
# and the slab writer's cut table ((events / slab)^2, about 36,000
# entries).
_MAX_EVENTS = 10**8
# Most levels in the fidelity diagnostic's states: its cost and memory
# grow with the cutoff (about 80 bytes per level), and 120 is the default.
_MAX_FIDELITY_CUTOFF = 10**4
# Most worker threads accepted at load; curve() further clamps its
# pool to the CPU count and the number of grid points.
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
    delta_nu_hz: float = 0.0
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
        return ModeLattice(n_modes=self.n_modes, nu_b=self.nu_b_hz, delta_nu=self.delta_nu_hz)

    def geometry(self) -> DetectorGeometry:
        return DetectorGeometry(r1=self.r1_m, r2=self.r2_m, c=self.c_mps)

    def oracle_lattice(self) -> ModeLattice:
        return ModeLattice(n_modes=self.oracle_pairs, nu_b=self.nu_b_hz)

    def validate(self) -> "RunConfig":
        """Check every key against _RULES, then the rules that join keys.

        Each refusal is a ValueError that names the key or keys at fault.
        """
        for key in _FIELD_TYPES:
            check_value(key, getattr(self, key))
        if not self.tau_max_s > self.tau_min_s:
            raise ValueError("tau_max_s must exceed tau_min_s")
        # Formed as curve, beat_phase, g2_mc_envelope and _draw_delays do. The
        # carrier phase cancels in g2, so no route forms it.
        lo, hi = float(self.tau_min_s), float(self.tau_max_s)
        offset = self.geometry().retarded_offset
        ends = (lo - offset, hi - offset)
        reach = max(map(abs, ends))
        at = "at the retarded range ends tau - (r1_m - r2_m) / c_mps, tau = tau_min_s, tau_max_s"
        window = 100.0 / self.delta_nu_hz + 4.0 * reach if self.delta_nu_hz > 0 else 0.0
        jittered = self.duration_s + 10.0 * self.jitter_sigma_s
        for what, value in {
            "tau_max_s - tau_min_s": hi - lo,
            f"the delay {at}": reach,
            f"the comb phase 2 pi nu_b_hz tau {at}": TWO_PI * self.nu_b_hz * reach,
            "the comb period 1 / nu_b_hz": 1 / self.nu_b_hz,
            f"the mc window 100 / delta_nu_hz + 4 |tau| {at}": window,
            # sample_pairs adds Gaussian jitter to times in [0, duration_s). A
            # draw past 10 sigma has odds near 1e-23, so none of the at most
            # _MAX_EVENTS per detector overflows where this sum is finite.
            "the jittered time duration_s + 10 jitter_sigma_s": jittered,
        }.items():
            if not math.isfinite(value):
                raise ValueError(f"{what} must be finite, got {value!r}")
        tooth = f"a comb tooth 1 / (n_modes nu_b_hz) must span over {_TOOTH_STEPS} float steps"
        if not 1 / (self.n_modes * self.nu_b_hz) > _TOOTH_STEPS * math.ulp(reach):
            raise ValueError(f"{tooth} of the delay {at}")
        if error := window_error(self.n_modes, self.window_periods):
            raise ValueError(error)
        if not self.delta_nu_hz < self.nu_b_hz:
            raise ValueError("delta_nu_hz must stay below nu_b_hz; modes would overlap")
        events = (self.pair_rate_hz + self.accidental_rate_hz) * self.duration_s
        if events > _MAX_EVENTS:
            raise ValueError(
                f"(pair_rate_hz + accidental_rate_hz) * duration_s gives {events:.3g} "
                f"expected events per detector; at most {_MAX_EVENTS:.0e} are allowed"
            )
        # The fidelity diagnostic, computed as `oracle` writes it.
        n, cutoff = self.fidelity_n, self.fidelity_cutoff
        try:
            fidelity_report(n, cutoff)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"fidelity_n={n} with fidelity_cutoff={cutoff}: {exc}") from exc
        # The oracle's pair state, built as `curve` and `oracle` build it:
        # a large alpha overflows its z^m / m! rows, and a tiny one leaves
        # the vacuum. Its peak g2(0, 0) = (mu - |beta|^2) + |beta|^2 = <m^2>.
        alpha, cutoff = self.oracle_alpha, self.oracle_cutoff
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                state = entangled_coherent_pairs([alpha], cutoff)
            peak = float(np.abs(state[0]) ** 2 @ np.arange(cutoff + 1) ** 2)
        except ValueError:
            peak = math.nan
        if not 0 < peak < math.inf:
            raise ValueError(
                f"oracle_alpha={alpha!r} with oracle_cutoff={cutoff}: the Fock oracle's "
                f"pair state has no finite, positive peak"
            )
        return self

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(RunConfig)}
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}
_TESTS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
    "in": lambda value, choices: value in choices,
}


def check_value(key: str, value, where: str = "") -> None:
    """Refuse value unless it has key's type, is finite if a float and
    passes _RULES[key]. where prefixes the refusal, which names the key."""
    kind = _FIELD_TYPES[key]
    if not isinstance(value, _TYPES[kind]) or isinstance(value, bool):
        raise ValueError(f"{where}{key} must be of type {kind}, got {value!r}")
    # Compared, since math.isfinite raises on an int beyond the float range.
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where}{key} must be finite, got {value!r}")
    for op, bound in _RULES[key]:
        if not _TESTS[op](value, bound):
            raise ValueError(f"{where}{key} must be {op} {bound}, got {value!r}")


# Every key's bounds, as (test, bound) pairs that its value must pass.
# Float values must also be finite. With the rules in validate() that
# join keys, they accept nothing that lattice() or geometry() refuses.
# The work caps that depend on the command are checked by that command.
_RULES = {
    "n_modes": ((">=", 1), ("<=", _MAX_MODES)),
    "nu_b_hz": ((">", 0),),
    "delta_nu_hz": ((">=", 0),),
    "r1_m": ((">=", 0),),
    "r2_m": ((">=", 0),),
    "c_mps": ((">", 0),),
    "tau_min_s": (),
    "tau_max_s": (),
    "n_points": ((">=", 2), ("<=", _MAX_POINTS)),
    "method": (("in", _METHODS),),
    "mc_realizations": ((">=", 3), ("<=", _MAX_MC_REALIZATIONS)),
    "pair_rate_hz": ((">", 0),),
    "duration_s": ((">", 0),),
    "jitter_sigma_s": ((">=", 0),),
    "window_periods": ((">", 0),),
    "accidental_rate_hz": ((">=", 0),),
    "bin_width_s": ((">", 0),),
    "oracle_pairs": ((">=", 1),),
    "oracle_alpha": ((">", 0),),
    "oracle_cutoff": ((">=", 1), ("<=", _MAX_CUTOFF)),
    "oracle_n_points": ((">=", 2), ("<=", _MAX_POINTS)),
    "fidelity_n": ((">=", 0),),
    "fidelity_cutoff": ((">=", 0), ("<=", _MAX_FIDELITY_CUTOFF)),
    "seed": ((">=", 0),),
    "threads": ((">=", 0), ("<=", _MAX_THREADS)),
    "out_dir": (),
}


def _coerce(key: str, value, where: str = ""):
    """Check that key is a config key; parse a string value to its type.

    where prefixes every error, to place it in a config file.
    """
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ValueError(f"{where}unknown config key: {key!r}")
    if not isinstance(value, str):
        return value
    text = value.strip()
    if kind == "str":
        return text
    if kind == "int":
        # Exact above 2**53, where the float path would round.
        try:
            return int(text)
        except ValueError:
            pass
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"{where}config key {key!r} expects a number, got {text!r}") from None
    if kind == "float":
        return number
    if not math.isfinite(number) or number != int(number):
        raise ValueError(f"{where}config key {key!r} expects an integer, got {text!r}")
    return int(number)


def _parse_item(item: str, where: str = "") -> tuple:
    """Split a `key = value` item, from a file line or --set, and type it."""
    key, eq, text = item.partition("=")
    if not eq:
        raise ValueError(f"{where}expected key=value, got {item!r}")
    key = key.strip()
    return key, _coerce(key, text, where)


def parse_overrides(pairs) -> dict:
    """Turn `key=value` strings (from --set flags) into typed values."""
    return dict(_parse_item(item) for item in pairs or ())


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides."""
    values = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = _parse_item(line, f"{path}:{lineno}: ")
                values[key] = value
    for key, value in (overrides or {}).items():
        values[key] = _coerce(key, value)
    return RunConfig(**values).validate()
