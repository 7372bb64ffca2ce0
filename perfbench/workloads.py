"""The four workloads: fixed sequences of real ghostcomb CLI invocations.

Each workload exercises a different mix of the program's layers, so a
change to one layer shows where its mechanism runs and reads flat where
it does not; README.md says why each workload exists and which layers
it should move. The bench seed reaches the program only as `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

# Program defaults the checks rely on (the argv below leaves them unset).
NU_B_HZ = 20e3
TAU_MIN_S = -1.25e-4
TAU_MAX_S = 1.25e-4

SIMULATE_OUTPUTS = (
    "stream_d1.bin", "stream_d2.bin", "histogram.csv", "histogram_meta.json",
    "results.json", "manifest.json",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv, the files it must leave, and their check."""

    label: str
    argv: tuple[str, ...]
    out: Path
    outputs: tuple[str, ...]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    """A workload name and the function listing one round's invocations for a seed."""

    name: str
    build: Callable[[int, Path], list[Invocation]]


def _sets(**values) -> tuple[str, ...]:
    args = []
    for key, value in values.items():
        args += ["--set", f"{key}={value}"]
    return tuple(args)


def _simulate_then_fit(sets: tuple[str, ...], seed: int, base: Path) -> list[Invocation]:
    sim, fit = base / "simulate", base / "fit"
    common = ("--seed", str(seed))
    return [
        Invocation(
            "simulate",
            ("simulate", *common, "--out", str(sim), "--threads", "1", *sets),
            sim, SIMULATE_OUTPUTS, partial(checks.check_simulate, sim),
        ),
        Invocation(
            "fit",
            ("fit", str(sim / "histogram.csv"), *common, "--out", str(fit)),
            fit, ("fit.json", "manifest.json"), partial(checks.check_fit, fit, sim),
        ),
    ]


def _curve_dense(seed: int, base: Path) -> list[Invocation]:
    out = base / "curve"
    n_modes, delta_nu, n_points = 100000, 200.0, 1000001
    return [
        Invocation(
            "curve-closed",
            ("curve", "--seed", str(seed), "--out", str(out), "--method", "closed",
             "--threads", "1",
             *_sets(n_modes=n_modes, delta_nu_hz=delta_nu, n_points=n_points)),
            out, ("curve.csv", "curve_summary.json", "manifest.json"),
            partial(checks.check_curve_dense, out, seed, n_modes, NU_B_HZ, delta_nu,
                    TAU_MIN_S, TAU_MAX_S, n_points),
        )
    ]


def mc_invocation(seed: int, out: Path, threads: int) -> Invocation:
    n_modes, delta_nu, n_points = 1000, 200.0, 11
    return Invocation(
        "curve-mc",
        ("curve", "--seed", str(seed), "--out", str(out), "--method", "mc",
         "--threads", str(threads),
         *_sets(n_modes=n_modes, delta_nu_hz=delta_nu, n_points=n_points)),
        out, ("curve.csv", "curve_mc_stderr.csv", "curve_summary.json", "manifest.json"),
        partial(checks.check_mc, out, n_modes, NU_B_HZ, delta_nu, TAU_MIN_S, TAU_MAX_S,
                n_points),
    )


def _crosscheck(seed: int, base: Path) -> list[Invocation]:
    out = base / "curve-all"
    return [
        Invocation(
            "curve-all",
            ("curve", "--seed", str(seed), "--out", str(out), "--method", "all",
             "--threads", "1", *_sets(n_modes=4, oracle_cutoff=4, n_points=2001)),
            out, ("curve.csv", "curve_comparison.csv", "curve_summary.json", "manifest.json"),
            partial(checks.check_method_comparison, out, ("direct", "fock")),
        ),
        mc_invocation(seed, base / "curve-mc", threads=2),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-sparse", partial(
            _simulate_then_fit,
            _sets(r1_m=checks.R1_M, jitter_sigma_s=2e-9, accidental_rate_hz=4))),
        Workload("sim-dense", partial(
            _simulate_then_fit,
            _sets(r1_m=checks.R1_M, pair_rate_hz=400, duration_s=250,
                  accidental_rate_hz=16000, jitter_sigma_s=2e-9))),
        Workload("curve-dense", _curve_dense),
        Workload("crosscheck", _crosscheck),
    )
}
