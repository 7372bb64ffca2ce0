"""Comb parameter recovery from coincidence histograms.

The counts trace the comb: teeth of width 1 / (N nu_b) at delays
(t1 - t2)_n = n / nu_b + (r1 - r2) / c, on a flat floor of accidental
pairs. fit_comb fits that shape to every bin at once by Poisson maximum
likelihood, so no peak is ever located on its own. It starts where the
counts folded at the comb period best match the folded template, the
FFTFIT method of pulsar timing (Taylor, Phil. Trans. R. Soc. A 341,
117, 1992). Because a shift by a whole period fits equally well, the
offset is defined only modulo one comb period; the fit reports it in
the principal interval (-period/2, period/2] along with the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import TWO_PI, _wrap, beat_phase
from .detection import CoincidenceHistogram

# Fisher scoring from the folded start takes about 6 steps.
_MAX_STEPS = 50
# Converged once a full step would raise the log-likelihood by less.
_TOL = 1e-9


@dataclass(frozen=True)
class CombFit:
    """Result of the Poisson template fit of the comb.

    offset_est lies in (-offset_period / 2, offset_period / 2]; adding
    any multiple of offset_period fits the same data. The standard
    errors come from the inverse Fisher matrix. The Poisson deviance
    per degree of freedom is near 1 when the template fits the counts.
    """

    nu_b_est: float
    nu_b_stderr: float
    offset_est: float
    offset_stderr: float
    offset_period: float
    deviance_per_dof: float


def _template(n_modes: int, nu_b: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bare comb s(u) = K_N(2 pi nu_b u) / N^2 and its slope ds/du."""
    phase = _wrap(beat_phase(nu_b, u))
    half = 0.5 * phase
    sin_half = np.sin(half)
    # Within N |phase| < 1e-3 of a peak the quotients lose digits; the
    # second-order series keeps s to 1e-15 and ds/dphase to 1e-11 N.
    near = n_modes * np.abs(phase) < 1e-3
    sin_half[near] = 1.0
    # The Dirichlet amplitude D = sin(N phase/2) / sin(phase/2), K_N = D^2.
    amp = np.sin(n_modes * half) / sin_half
    slope = (n_modes * np.cos(n_modes * half) - amp * np.cos(half)) / (2.0 * sin_half)
    curvature = n_modes * (n_modes**2 - 1) / 24.0
    amp[near] = n_modes - curvature * phase[near] ** 2
    slope[near] = -2.0 * curvature * phase[near]
    return (amp / n_modes) ** 2, (2.0 * TWO_PI * nu_b / n_modes**2) * amp * slope


def _folded_start(hist: CoincidenceHistogram, n_modes: int, nu_b: float) -> np.ndarray:
    """Starting (A, B, x, nu_b): the counts and the template at zero
    offset, folded at the comb period alike and cross-correlated by FFT."""
    period = 1.0 / nu_b
    # Phase bins a tenth of a tooth wide, so each holds a bin or more.
    m = 10 * n_modes
    profile, template, hits = np.zeros((3, m))
    for taus, counts in hist.blocks():
        j = np.minimum((np.mod(taus * nu_b, 1.0) * m).astype(np.int64), m - 1)
        np.add.at(profile, j, counts)
        np.add.at(template, j, _template(n_modes, nu_b, taus)[0])
        np.add.at(hits, j, 1.0)
    # Means per bin at each phase.
    profile /= np.maximum(hits, 1.0)
    template /= np.maximum(hits, 1.0)
    spectrum = np.fft.rfft(profile)
    spectrum *= np.fft.rfft(template).conj()
    x = np.argmax(np.fft.irfft(spectrum, m)) * period / m
    low = profile.min()
    return np.array([profile.max() - low, low, x - period if x > period / 2 else x, nu_b])


def _scoring_terms(hist, n_modes, theta) -> tuple[np.ndarray, np.ndarray, float]:
    """Fisher matrix, score and Poisson deviance of the mean
    mu = A s(tau - x; nu) + B over parameters theta = (A, B, x, nu)."""
    a, b, x, nu = theta
    fisher = np.zeros((4, 4))
    score = np.zeros(4)
    deviance = 0.0
    for taus, n in hist.blocks():
        u = taus - x
        s, ds = _template(n_modes, nu, u)
        mu = a * s + b
        # d mu / d(A, B, x, nu); s depends on nu through nu u alone.
        grad = np.stack((s, np.ones_like(s), -a * ds, (a / nu) * u * ds))
        fisher += (grad / mu) @ grad.T
        score += grad @ (n / mu - 1.0)
        deviance += 2.0 * float(np.sum(n * np.log(np.where(n > 0, n / mu, 1.0)) - n + mu))
    return fisher, score, deviance


def comb_fit_error(
    n_modes: int, nu_b: float, bin_width: float, tau_min: float, tau_max: float
) -> str | None:
    """Why fit_comb refuses this comb and binning, or None; simulate asks first."""
    if n_modes < 2:
        return f"n_modes={n_modes}: the comb needs at least 2 modes to have teeth"
    if not nu_b > 0:
        return f"nu_b_hz={nu_b!r}: nu_b must be positive"
    width = 1.0 / (n_modes * nu_b)
    if width < 10 * bin_width:
        return (
            f"binning too coarse: bin_width_s={bin_width!r} gives "
            f"{width / bin_width:.1f} bins per peak width 1/(n_modes nu_b_hz), need 10"
        )
    if tau_max - tau_min < 2.0 / nu_b:
        return f"tau_max_s - tau_min_s is under two comb periods 2 / nu_b_hz, {2.0 / nu_b:.3g} s"
    return None


def fit_comb(hist: CoincidenceHistogram, n_modes: int, nu_b: float) -> CombFit:
    """Fit the comb of N = n_modes modes spaced by nu_b to the counts.

    The mean count in the bin at delay tau is A s(tau - x; nu) + B,
    where s is the bare comb K_N(2 pi nu u) / N^2 (see g2_closed); the
    linewidth envelope is symmetric about the offset and left out.
    Fisher scoring on (A, B, x, nu) maximizes the Poisson likelihood
    from the folded start. The offset is x wrapped to the principal
    interval, and its error is propagated through the period at that
    order. Refuses binning coarser than 10 bins per tooth width
    1 / (N nu_b), a range shorter than two periods (see comb_fit_error)
    and a flat histogram.
    """
    if error := comb_fit_error(n_modes, nu_b, hist.bin_width, hist.tau_min, hist.tau_max):
        raise ValueError(error)
    if hist.counts.max() == hist.counts.min():
        raise ValueError("histogram is flat; no comb to fit")

    # The floor B is held at or above a millionth of the mean count per
    # bin, a level no count resolves, so every bin's mean stays positive.
    lowest = 1e-6 * hist.total_pairs / hist.counts.size
    theta = _folded_start(hist, n_modes, nu_b)
    step, deviance = np.zeros(4), math.inf
    for _ in range(_MAX_STEPS):
        trial = theta + step
        trial[1] = max(trial[1], lowest)
        terms = _scoring_terms(hist, n_modes, trial)
        # Halve a step that lowers the likelihood; full steps can cycle at a zero floor.
        if terms[2] > deviance and score @ step >= _TOL:
            if score @ step < 16 * np.finfo(float).eps * hist.total_pairs:
                break  # the deviance sum cannot resolve a gain this small
            step *= 0.5
            continue
        theta, (fisher, score, deviance) = trial, terms
        if not theta[0] > 0:
            raise ValueError("no comb in the histogram")
        # A floor at its bound that the likelihood would lower stays put.
        free = np.array([True, theta[1] > lowest or score[1] > 0, True, True])
        fisher = fisher[np.ix_(free, free)]
        step = np.zeros(4)
        step[free] = np.linalg.solve(fisher, score[free])
        if score @ step < _TOL:
            break
    else:
        raise ValueError(f"comb fit did not converge in {_MAX_STEPS} steps")

    cov = np.zeros((4, 4))
    cov[np.ix_(free, free)] = np.linalg.inv(fisher)
    x, nu = theta[2], theta[3]
    period = 1.0 / nu
    k = math.ceil(x / period - 0.5)
    # d(x - k / nu) / d(x, nu) carries the error to the wrapped order.
    grad = np.array([1.0, k * period**2])
    return CombFit(
        nu_b_est=float(nu),
        nu_b_stderr=math.sqrt(cov[3, 3]),
        offset_est=float(x - k * period),
        offset_stderr=math.sqrt(grad @ cov[2:, 2:] @ grad),
        offset_period=float(period),
        deviance_per_dof=deviance / (hist.counts.size - 4),
    )
