"""Output checks: every problem found makes its invocation a failed operation.

The references here are computed by the benchmark itself from its own
inputs. Nothing in this module imports ghostcomb, so a defect in the
program cannot hide by also being present in its reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

# Path offset of the simulated experiment: detector 1 sits 3.0 m further
# out, so the true offset (r1 - r2) / c is known here and never passed
# to the program, which has to recover it from the comb.
R1_M = 3.0
C_MPS = 299792458.0
TRUE_OFFSET_S = R1_M / C_MPS
OFFSET_SIGMAS = 5.0

# Criterion 2's bound on |g2_method - g2_closed| relative to the unit peak.
CROSSCHECK_BOUND = 1e-6
MC_SIGMAS = 4.0
CURVE_BOUND = 1e-6
CURVE_SAMPLES = 1000

# Files excluded from byte identity: the manifest carries wall-clock time.
NOT_DETERMINISTIC = {"manifest.json"}


def g2_reference(taus, n_modes: int, nu_b: float, delta_nu: float) -> np.ndarray:
    """Peak-1 comb sinc^2(dnu tau) * [sin(N pi f) / (N sin(pi f))]^2, f = nu_b tau.

    The phase is reduced in cycles (f minus its nearest integer) before
    it is scaled by N, which keeps it accurate to about 1e-10 rad for
    |f| of a few cycles and N up to 1e5.
    """
    taus = np.asarray(taus, dtype=float)
    f = nu_b * taus
    g = f - np.round(f)
    zero = g == 0.0
    den = n_modes * np.sin(np.pi * np.where(zero, 0.5, g))
    kernel = np.where(zero, 1.0, np.sin(np.pi * n_modes * g) / den) ** 2
    return np.sinc(delta_nu * taus) ** 2 * kernel


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def check_offset(fit: dict, where: str) -> list[str]:
    """The recovered offset, wrapped by its period, lies within 5 sigma of the truth."""
    try:
        est = float(fit["offset_est_s"])
        stderr = float(fit["offset_stderr_s"])
        period = float(fit["offset_period_s"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: fit lacks offset fields ({exc})"]
    if not (math.isfinite(est) and math.isfinite(stderr) and stderr > 0 and period > 0):
        return [f"{where}: non-finite or non-positive offset fields"]
    delta = est - TRUE_OFFSET_S
    delta -= period * round(delta / period)
    if abs(delta) > OFFSET_SIGMAS * stderr:
        return [f"{where}: offset is {delta / stderr:+.2f} sigma from the truth"]
    return []


def check_simulate(out: Path) -> list[str]:
    return check_offset(read_json(out / "results.json")["fit"], "results.json")


def check_fit(out: Path, simulate_out: Path) -> list[str]:
    """fit.json recovers the offset and agrees with the simulate run's own fit."""
    fit = read_json(out / "fit.json")
    problems = check_offset(fit, "fit.json")
    reference = read_json(simulate_out / "results.json")["fit"]
    differing = sorted(k for k in fit.keys() & reference.keys() if fit[k] != reference[k])
    if differing:
        problems.append(f"fit.json disagrees with results.json on {', '.join(differing)}")
    return problems


def _read_rows(path: Path) -> list[bytes]:
    """Data rows of a CSV file, without its header and trailing newline."""
    return Path(path).read_bytes().rstrip(b"\n").split(b"\n")[1:]


def _grid_problems(taus_read, grid) -> list[str]:
    step = grid[1] - grid[0]
    worst = float(np.max(np.abs(np.asarray(taus_read) - grid)))
    if worst > 1e-3 * step:
        return [f"tau column is off the requested grid by {worst:.3e} s"]
    return []


def check_curve_dense(
    out: Path, seed: int, n_modes: int, nu_b: float, delta_nu: float,
    tau_min: float, tau_max: float, n_points: int,
) -> list[str]:
    """About 1000 seed-chosen rows plus the central peak match the reference."""
    rows = _read_rows(out / "curve.csv")
    if len(rows) != n_points:
        return [f"curve.csv has {len(rows)} rows, expected {n_points}"]
    picks = random.Random(seed).sample(range(n_points), min(CURVE_SAMPLES, n_points))
    picks = sorted(set(picks) | {n_points // 2})
    taus, values = [], []
    for i in picks:
        tau, value = rows[i].split(b",")
        taus.append(float(tau))
        values.append(float(value))
    grid = np.linspace(tau_min, tau_max, n_points)[picks]
    problems = _grid_problems(taus, grid)
    expected = g2_reference(grid, n_modes, nu_b, delta_nu)
    worst = float(np.max(np.abs(np.asarray(values) - expected)))
    if worst > CURVE_BOUND:
        problems.append(f"curve.csv deviates from the reference by {worst:.3e}")
    return problems


def check_method_comparison(out: Path, methods: tuple[str, ...]) -> list[str]:
    """Each cross-check column stays within criterion 2's bound."""
    lines = (out / "curve_comparison.csv").read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    problems = []
    for method in methods:
        column = f"rel_err_{method}"
        if column not in header:
            problems.append(f"curve_comparison.csv lacks {column}")
            continue
        worst = float(np.max(data[:, header.index(column)]))
        if not worst <= CROSSCHECK_BOUND:
            problems.append(f"{column} reaches {worst:.3e} > {CROSSCHECK_BOUND:g}")
    return problems


def check_mc(
    out: Path, n_modes: int, nu_b: float, delta_nu: float,
    tau_min: float, tau_max: float, n_points: int,
) -> list[str]:
    """Each Monte-Carlo point lies within 4 standard errors of the closed form.

    The CLI divides the estimates and their standard errors by the largest
    estimate, which is itself noisy and, being a maximum, biased high. The
    comparison therefore first fits the one scale factor that division
    introduced (weighted least squares over all points), then tests every
    point against the closed form with its own standard error.
    """
    values = np.array([[float(x) for x in r.split(b",")] for r in _read_rows(out / "curve.csv")])
    errors = np.array(
        [[float(x) for x in r.split(b",")] for r in _read_rows(out / "curve_mc_stderr.csv")]
    )
    if values.shape != (n_points, 2) or errors.shape != (n_points, 2):
        return [f"mc outputs do not hold {n_points} rows of two columns"]
    grid = np.linspace(tau_min, tau_max, n_points)
    problems = _grid_problems(values[:, 0], grid)
    value, stderr = values[:, 1], errors[:, 1]
    if not np.all(stderr > 0):
        return problems + ["mc standard errors must be positive"]
    ref = g2_reference(grid, n_modes, nu_b, delta_nu)
    weight = stderr**-2.0
    scale = np.sum(weight * value * ref) / np.sum(weight * value * value)
    for tau, v, e, expected in zip(grid, scale * value, scale * stderr, ref):
        if abs(v - expected) > MC_SIGMAS * e:
            problems.append(
                f"mc point at {tau:.3e} s: {v:.6f} vs {expected:.6f} (stderr {e:.2e}, "
                f"scale {scale:.4f})"
            )
    return problems


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every data output in a directory (the manifest excluded)."""
    result = {}
    for path in sorted(Path(out).iterdir()):
        if path.is_file() and path.name not in NOT_DETERMINISTIC:
            h = hashlib.sha256()
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            result[path.name] = h.hexdigest()
    return result

