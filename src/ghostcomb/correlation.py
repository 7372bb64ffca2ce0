"""Second-order cross correlation of the two-beam comb state.

The central object is the normally ordered intensity cross correlation
G2 as a function of the retarded delay tau. For a lattice of N mode
pairs spaced by the beat frequency nu_b it factors into a slow envelope
set by the single-mode linewidth and a fast Dirichlet comb:

    g2(tau) = sinc(pi dnu tau)^2 * K_N(2 pi nu_b tau) / N^2

where K_N(x) = sin(N x / 2)^2 / sin(x / 2)^2. The comb repeats every
1 / nu_b and each tooth has a peak-to-first-zero width of 1 / (N nu_b),
so large N buys narrow timing features without shortening the envelope.

Three independent evaluation routes are provided and cross-checked in
the test suite: the closed form above, a direct sum over the mode
amplitudes, and a Monte Carlo average over realizations of the mode
phase disorder frozen into each measurement window. A fourth route, an
exact Fock-space moment computation for product states of entangled
coherent pairs, lives in the fock module and is dispatched through
curve() as well.

Phase arithmetic note: the comb is evaluated at x = 2 pi nu_b tau with
tau up to milliseconds and nu_b in the tens of kHz, so x can reach 1e4
radians while features are resolved at 1e-9 relative scale. Plain
floating evaluation of n * x loses enough bits to break the agreement
between the direct sum and the closed form at that scale. Both paths
therefore reduce x to the principal interval and split it into a 26-bit
head plus tail (Veltkamp splitting), making n * head exact for every
mode index below 2**27; the tail contributes through well conditioned
small-angle factors. Direct sums are accumulated with math.fsum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import DetectorGeometry, ModeLattice
from .seeding import LABEL_MC_ENVELOPE, derive_rng

TWO_PI = 2.0 * math.pi

# Half width at half maximum of sinc(x)^2, the root of sin(x)/x = 1/sqrt(2).
SINC_SQ_HALF_POWER = 1.3915573782515098

# Below this |sin(u/2)| the kernel ratio is evaluated through its sinc
# limit instead of the quotient, which keeps the removable singularity
# at u = 0 finite and accurate.
_SINGULAR_SIN_HALF = 1e-8

# Most modes whose phases the head/tail split keeps exact (see above).
_MAX_MODES = 2**27 - 1

_MC_CHUNK = 512
# Realizations drawn and reduced at once within a chunk: at 1000 modes
# a block's few temporaries fit in L2 instead of streaming through RAM.
_MC_BLOCK_ROWS = 32

# The Monte Carlo weight's cosine-difference form carries an absolute
# error of about 1e-15 / |4u(u - c)| (see _mc_amplitudes); below this
# bound on |4u(u - c)| the sampler takes the two-sinc product instead.
_MC_GUARD = 0.1


def beat_phase(nu_b: float, tau) -> np.ndarray | float:
    """Comb phase argument x = 2 pi nu_b tau.

    Every route but the Fock oracle (by design: it shares no code with
    the routes it checks) takes its phase from here, so equal (nu_b, tau)
    map to bit-identical doubles before any range reduction.
    """
    return TWO_PI * nu_b * np.asarray(tau, dtype=float)[()]


def _wrap(x: np.ndarray) -> np.ndarray:
    """Reduce phase to the principal interval (-pi, pi]."""
    return x - TWO_PI * np.round(x / TWO_PI)


def _split(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split of u into a 26-bit head and the exact remainder.

    The head carries at most 26 significand bits, so multiplying it by
    any integer below 2**27 is exact in double precision.
    """
    c = u * float(2**27 + 1)
    hi = c - (c - u)
    lo = u - hi
    return hi, lo


def dirichlet_kernel(n_modes: int, x) -> np.ndarray | float:
    """Squared Dirichlet kernel K_N(x) = sin(N x / 2)^2 / sin(x / 2)^2.

    Accepts scalars or arrays. Values lie in [0, N^2] with the maximum
    attained at multiples of 2 pi, where the removable singularity is
    evaluated through its sinc-ratio limit.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    n = int(n_modes)
    if n > _MAX_MODES:
        raise ValueError(f"n_modes above {_MAX_MODES} is too large for exact phase splitting")
    xs = np.asarray(x, dtype=float)
    u = _wrap(xs)
    s = np.sin(0.5 * u)
    singular = np.abs(s) < _SINGULAR_SIN_HALF

    hi, lo = _split(u)
    a = n * hi
    b = n * lo
    sn = np.sin(0.5 * a) * np.cos(0.5 * b) + np.cos(0.5 * a) * np.sin(0.5 * b)
    out = np.asarray((sn / np.where(singular, 1.0, s)) ** 2)
    # The sinc-ratio limit, evaluated only where it is taken.
    us = u[singular]
    out[singular] = (n * np.sinc(n * us / TWO_PI) / np.sinc(us / TWO_PI)) ** 2
    return out[()]


def psi_direct(lattice: ModeLattice, tau: float) -> complex:
    """Two-photon amplitude at retarded delay tau by direct summation
    over the mode lattice.

    Valid for zero single-mode linewidth, where each mode pair
    contributes a pure phase e^{-i n omega_b tau}. All pairs enter with
    unit weight, so |psi|^2 equals the Dirichlet kernel exactly. The
    carrier phase e^{-i omega_p (t1 + t2) / 2}, at detection times t1
    and t2, is common to every pair and cancels in |psi|^2, so it is not
    formed.
    """
    if lattice.delta_nu != 0.0:
        raise ValueError("psi_direct requires a zero-linewidth lattice")

    hi, lo = _split(_wrap(beat_phase(lattice.nu_b, tau)))
    idx = np.arange(lattice.n_modes)
    terms = np.exp(-1j * (idx * float(hi))) * np.exp(-1j * (idx * float(lo)))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def g2_closed(lattice: ModeLattice, tau) -> np.ndarray | float:
    """Closed-form correlation, normalized to 1 at the comb peaks.

    tau is the retarded delay; apply the detector path offset before
    calling (curve() does this). The linewidth enters as a sinc^2
    envelope; a zero linewidth gives the bare periodic comb.
    """
    taus = np.asarray(tau, dtype=float)
    comb = dirichlet_kernel(lattice.n_modes, beat_phase(lattice.nu_b, taus))
    comb = comb / float(lattice.n_modes) ** 2
    if lattice.delta_nu > 0.0:
        env = np.sinc(lattice.delta_nu * taus) ** 2
        comb = env * comb
    return comb[()]


def comb_peak_positions(lattice: ModeLattice, geom: DetectorGeometry, n_range) -> np.ndarray:
    """Laboratory delays t1 - t2 of the comb maxima with the orders n_range.

    n_range is any array-like of orders: a range, a list or an array.
    """
    orders = np.asarray(n_range, dtype=float)
    return orders / lattice.nu_b + geom.retarded_offset


def comb_peak_orders(
    lattice: ModeLattice, geom: DetectorGeometry, lo: float, hi: float
) -> range:
    """Orders n of the comb maxima whose laboratory delays lie in [lo, hi]."""
    period = 1.0 / lattice.nu_b
    return range(
        math.ceil((lo - geom.retarded_offset) / period),
        math.floor((hi - geom.retarded_offset) / period) + 1,
    )


def comb_peak_width(lattice: ModeLattice) -> float:
    """Peak-to-first-zero width of a comb tooth, 1 / (N nu_b)."""
    if lattice.n_modes < 2:
        raise ValueError("comb teeth need at least 2 modes to have zeros")
    return 1.0 / (lattice.n_modes * lattice.nu_b)


def envelope_first_zero(lattice: ModeLattice) -> float:
    """First zero of the linewidth envelope, 1 / delta_nu."""
    if lattice.delta_nu == 0.0:
        return math.inf
    return 1.0 / lattice.delta_nu


def envelope_fwhm(lattice: ModeLattice) -> float:
    """Full width at half maximum of the sinc^2 linewidth envelope."""
    if lattice.delta_nu == 0.0:
        return math.inf
    return 2.0 * SINC_SQ_HALF_POWER / (math.pi * lattice.delta_nu)


def _mc_amplitudes(
    lattice: ModeLattice, tau: float, window: float, seed: int, r: int
) -> np.ndarray:
    """The r realization amplitudes g2_mc_envelope averages.

    Each realization draws one emission epoch t0 ~ U(0, window) per mode
    pair and has the amplitude sum_n w_n e^{-i n x}, with x = 2 pi nu_b tau
    and the weight w = sinc(dnu (t1 - t0)) sinc(dnu (t2 - t0)). With
    u = pi dnu (t1 - t0) and c = pi dnu tau that product is

        sin(u) sin(u - c) / (u (u - c)) = [cos c - cos(2u - c)] / (2u (u - c)),

    so each sample costs one cosine and one division. Near u = 0 and
    u = c the cosine difference cancels (it is 0/0 at those points):
    samples with |4u (u - c)| < _MC_GUARD take the two-sinc product
    instead. The weights are reduced against the real cos/sin phase
    vectors with einsum, which never calls BLAS, so the sampler runs on
    the calling thread alone. Each chunk of _MC_CHUNK realizations draws
    from its own stream, _MC_BLOCK_ROWS realizations at a time;
    successive draws from one generator give the same values as one
    draw of the whole chunk.
    """
    n = lattice.n_modes
    dnu = lattice.delta_nu
    t1 = 0.5 * window + 0.5 * tau
    t2 = 0.5 * window - 0.5 * tau
    c = math.pi * dnu * tau
    cos_c = math.cos(c)
    nx = np.arange(n) * float(beat_phase(lattice.nu_b, tau))
    # The block forms w / 2; the phase vectors carry the factor 2 back.
    re_phase = 2.0 * np.cos(nx)
    im_phase = -2.0 * np.sin(nx)
    # Distinct stream per delay value so neighboring grid points are
    # statistically independent rather than sharing epoch draws.
    tau_bits = int(np.float64(tau).view(np.uint64))

    amp = np.empty(r, dtype=complex)
    for k, chunk_start in enumerate(range(0, r, _MC_CHUNK)):
        rng = derive_rng(seed, LABEL_MC_ENVELOPE, tau_bits, k)
        chunk = amp[chunk_start : chunk_start + _MC_CHUNK]
        for start in range(0, chunk.size, _MC_BLOCK_ROWS):
            out = chunk[start : start + _MC_BLOCK_ROWS]
            t0 = rng.uniform(0.0, window, size=(out.size, n))
            two_u = np.subtract(t1, t0)
            two_u *= TWO_PI * dnu
            den = np.subtract(two_u, 2.0 * c)
            den *= two_u  # 4u(u - c)
            near = np.flatnonzero((den < _MC_GUARD) & (den > -_MC_GUARD))
            t0_near = t0.ravel()[near]
            arg = np.subtract(two_u, c, out=t0)  # 2u - c
            np.cos(arg, out=arg)
            half_w = np.subtract(cos_c, arg, out=arg)
            den.ravel()[near] = 1.0
            half_w /= den  # w / 2
            half_w.ravel()[near] = 0.5 * (
                np.sinc(dnu * (t1 - t0_near)) * np.sinc(dnu * (t2 - t0_near))
            )
            np.einsum("ij,j->i", half_w, re_phase, out=out.real)
            np.einsum("ij,j->i", half_w, im_phase, out=out.imag)
            # Free the block's temporaries before the next block draws.
            del t0, two_u, den, arg, half_w
    return amp


def g2_mc_envelope(
    lattice: ModeLattice,
    tau: float,
    n_realizations: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of g2 at one delay, with its standard error.

    Each realization freezes a random emission epoch per mode pair,
    drawn uniformly over a window much longer than the envelope, and
    sums the coherent two-photon amplitude. The squared magnitude of
    the ensemble-averaged amplitude is estimated by the unbiased
    U-statistic over all ordered realization pairs, and the standard
    error comes from leave-one-out jackknife resampling. The result is
    normalized to the same peak-1 scale as g2_closed.

    The window self-extends with |tau| so the evaluation points stay
    clear of the emission-epoch boundaries; without that margin the
    estimate acquires a deterministic truncation bias near the window
    edges. Requires a strictly positive linewidth and at least three
    realizations, which the jackknife needs. Each chunk of _MC_CHUNK
    realizations derives its own RNG stream and is summed without BLAS
    (see _mc_amplitudes), so the estimate depends on neither BLAS
    threading nor the thread it runs on.
    """
    if lattice.delta_nu <= 0.0:
        raise ValueError("Monte Carlo envelope needs a positive linewidth")
    if n_realizations < 3:
        raise ValueError("need at least 3 realizations for the jackknife")
    tau = float(tau)
    window = 100.0 / lattice.delta_nu + 4.0 * abs(tau)
    r = int(n_realizations)
    amp = _mc_amplitudes(lattice, tau, window, seed, r)

    total = amp.sum()
    sq = np.abs(amp) ** 2
    sq_sum = float(sq.sum())
    u_stat = (abs(total) ** 2 - sq_sum) / (r * (r - 1))

    # Jackknife over realizations.
    loo_total = total - amp
    loo_sq = sq_sum - sq
    u_loo = (np.abs(loo_total) ** 2 - loo_sq) / ((r - 1) * (r - 2))
    stderr = math.sqrt((r - 1) / r * float(np.sum((u_loo - u_loo.mean()) ** 2)))

    # E[A] = sinc(dnu tau) K_N phases / (dnu window), so dividing the
    # pair statistic by (N / (dnu window))^2 lands on the peak-1 scale.
    scale = (lattice.n_modes / (lattice.delta_nu * window)) ** 2
    return u_stat / scale, stderr / scale


@dataclass(frozen=True)
class CorrelationCurve:
    """A sampled correlation curve on a uniform delay grid.

    taus are laboratory delays t1 - t2; values are g2 samples. The
    normalization tag records whether values are on the method's raw
    scale or peak-normalized to a maximum of 1. stderrs is populated
    only by the Monte Carlo method.
    """

    taus: np.ndarray
    values: np.ndarray
    normalization: str
    stderrs: np.ndarray | None = None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if taus.ndim != 1 or values.shape != taus.shape:
            raise ValueError("taus and values must be matching 1-d arrays")
        if np.any(values < 0):
            raise ValueError("correlation values must be non-negative")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)

    def peak_normalized(self) -> "CorrelationCurve":
        """Return a copy rescaled so the maximum value is exactly 1."""
        peak = float(np.max(self.values))
        if peak <= 0.0:
            raise ValueError("cannot peak-normalize a non-positive curve")
        stderrs = None if self.stderrs is None else self.stderrs / peak
        return CorrelationCurve(self.taus, self.values / peak, "peak", stderrs)


def curve(
    lattice: ModeLattice,
    geom: DetectorGeometry,
    tau_min: float,
    tau_max: float,
    n_points: int,
    method: str = "closed",
    *,
    n_realizations: int = 2000,
    seed: int | None = None,
    threads: int = 1,
    alpha: float = 0.1,
    cutoff: int = 6,
) -> CorrelationCurve:
    """Evaluate a correlation curve on a uniform grid of lab delays.

    The grid spans [tau_min, tau_max] in the laboratory delay t1 - t2;
    the detector path offset is subtracted before evaluating the chosen
    method. Methods: "closed" (analytic), "direct" (amplitude sum, zero
    linewidth only), "mc" (stochastic envelope, needs a seed), "fock"
    (exact moments of a truncated entangled coherent state, zero
    linewidth only; cost grows as n_modes * n_points, like "direct").

    Each method keeps its natural scale: "raw" for "mc", whose estimate
    is already on g2_closed's peak-1 scale (dividing by its own noisy
    maximum would bias the values and leave that noise out of the
    standard errors), "peak" otherwise. A caller who wants a
    peak-scaled mc curve calls peak_normalized().

    "mc" spreads the points over `threads` workers (0: one per CPU), no
    more than the CPUs or the points. Each point's streams are keyed by
    the seed and its delay, and results keep grid order, so the curve
    does not depend on the thread count.
    """
    if not tau_max > tau_min:
        raise ValueError("tau_max must exceed tau_min")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")

    taus = np.linspace(tau_min, tau_max, int(n_points))
    tau_ret = taus - geom.retarded_offset
    stderrs = None

    if method == "closed":
        values = np.asarray(g2_closed(lattice, tau_ret), dtype=float)
    elif method == "direct":
        scale = float(lattice.n_modes) ** 2
        values = np.array(
            [abs(psi_direct(lattice, t)) ** 2 / scale for t in tau_ret]
        )
    elif method == "mc":
        if seed is None:
            raise ValueError("the mc method requires a seed")
        if threads < 0:
            raise ValueError("threads must be non-negative")
        cpus = os.cpu_count() or 1
        with ThreadPoolExecutor(min(threads or cpus, cpus, len(tau_ret))) as pool:
            pairs = list(
                pool.map(lambda t: g2_mc_envelope(lattice, t, n_realizations, seed), tau_ret)
            )
        # The unbiased estimator fluctuates below zero in the valleys;
        # clip for the curve, whose values are nonnegative by contract.
        values = np.maximum(np.array([p[0] for p in pairs]), 0.0)
        stderrs = np.array([p[1] for p in pairs])
    elif method == "fock":
        from .fock import entangled_coherent_pairs, oracle_g2

        state = entangled_coherent_pairs([alpha] * lattice.n_modes, cutoff)
        values = oracle_g2(lattice, state, tau_ret)
    else:
        raise ValueError(f"unknown method: {method!r}")

    out = CorrelationCurve(taus, values, "raw", stderrs)
    return out if method == "mc" else out.peak_normalized()
