"""Truncated Fock-space states and an exact correlation oracle.

This module verifies the analytic comb from first principles at desk
scale. States live in a photon-number basis truncated at a per-mode
cutoff, and the fourth-order field moment behind g2 is evaluated by
explicit operator algebra, with no appeal to the closed form. A state
of P pairs is held as its (cutoff + 1)^P diagonal amplitudes, and the
oracle works on that tensor directly; everything here is capped at a
few pairs, since the point is validating formulas, not scale.

Pair states are stored through their diagonal amplitudes c_m on the
kets |m⟩_s |m⟩_i. For phase-averaged coherent pairs this is the exact
description. A plain two-mode coherent product also has off-diagonal
number components; those carry no pair correlations and are tracked
only as an aggregate squared weight so that norms and fidelities stay
exact without materializing the off-diagonal block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ModeLattice
from .seeding import LABEL_PHASE_SCRAMBLE, derive_rng

TWO_PI = 2.0 * math.pi

_MAX_PAIRS = 4
_MAX_CUTOFF = 12

# log of the largest double; factorial coefficients beyond this cannot
# be represented and the construction must fail loudly.
_LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TruncatedPairState:
    """State of one mode pair, truncated at `cutoff` photons per mode.

    amplitudes[m] is the coefficient on |m⟩_s |m⟩_i. offdiag_norm_sq
    aggregates the squared weight of any number-off-diagonal components
    the represented state has beyond the stored diagonal; it enters
    norms and fidelities but carries no structure of its own.
    """

    cutoff: int
    amplitudes: np.ndarray
    offdiag_norm_sq: float = 0.0

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError("amplitudes must have cutoff + 1 entries")
        if self.offdiag_norm_sq < 0.0:
            raise ValueError("offdiag_norm_sq must be non-negative")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def diag_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @property
    def norm(self) -> float:
        return math.sqrt(self.diag_norm_sq + self.offdiag_norm_sq)

    def mean_pair_number(self) -> float:
        """Mean photon number per mode over the diagonal component."""
        probs = np.abs(self.amplitudes) ** 2
        return float(np.sum(probs * np.arange(self.cutoff + 1)) / np.sum(probs))


@dataclass(frozen=True)
class MultiPairState:
    """Tensor product structure over P mode pairs, diagonal per pair.

    amplitudes is a P-dimensional array; entry [m1, ..., mP] is the
    coefficient on the basis ket ⊗_k |m_k⟩_s |m_k⟩_i. Normalized.
    """

    pair_count: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != self.pair_count:
            raise ValueError("amplitudes must have one axis per pair")
        if amps.shape != (self.cutoff + 1,) * self.pair_count:
            raise ValueError("every axis must have cutoff + 1 entries")
        norm = float(np.linalg.norm(amps.ravel()))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("multi-pair amplitudes must be normalized")
        object.__setattr__(self, "amplitudes", amps)


def build_perturbation_state(n: int, cutoff: int) -> tuple[TruncatedPairState, np.ndarray]:
    """State from the order-n expansion of the pair-creation exponential.

    The unnormalized coefficient on |m, m⟩ is the falling factorial
    n (n-1) ... (n-m+1), equal to binom(n, m) * m!, for m up to
    min(n, cutoff) and zero beyond. Returns the normalized state along
    with the raw coefficients, which are exact integers as long as they
    fit a double mantissa. The construction fails if any coefficient
    would overflow a double.
    """
    if n < 0:
        raise ValueError("interaction count must be non-negative")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    top = min(n, cutoff)
    log_peak = math.lgamma(n + 1) - math.lgamma(n - top + 1)
    if log_peak > _LOG_DBL_MAX:
        raise OverflowError(
            f"raw coefficient for n={n}, m={top} exceeds double range"
        )
    raw = np.zeros(cutoff + 1)
    raw[0] = 1.0
    for m in range(top):
        raw[m + 1] = raw[m] * (n - m)
    if not np.isfinite(raw).all():
        raise OverflowError(
            f"raw coefficient for n={n}, m={top} exceeds double range"
        )
    amps = raw / np.linalg.norm(raw)
    return TruncatedPairState(cutoff, amps.astype(complex)), raw


def build_coherent_product(alpha: complex, cutoff: int) -> TruncatedPairState:
    """Two-mode coherent product |alpha⟩_s |alpha⟩_i, truncated.

    The stored diagonal amplitude on |m, m⟩ is the exact coefficient
    e^{-|alpha|^2} alpha^{2m} / m! of the normalized product state; the
    squared weight of the off-diagonal number components below the
    cutoff goes into offdiag_norm_sq. Fails if truncation discards more
    than 1e-9 of the state's norm.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    ms = np.arange(cutoff + 1)
    # Single-mode probabilities P(m) = e^{-a2} a2^m / m!, by recurrence.
    log_probs = -a2 + ms * (math.log(a2) if a2 > 0 else 0.0) - np.array(
        [math.lgamma(m + 1) for m in ms]
    )
    probs = np.exp(log_probs) if a2 > 0 else np.eye(1, cutoff + 1, 0).ravel()
    kept = float(probs.sum())
    deficit = 1.0 - kept**2
    if deficit > 1e-9:
        raise ValueError(
            f"cutoff {cutoff} keeps only {kept**2:.12f} of the norm; "
            "raise the cutoff"
        )
    phase = np.ones(cutoff + 1, dtype=complex)
    if alpha != 0:
        unit = alpha / abs(alpha)
        phase = unit ** (2 * ms)
    diag = probs * phase  # |c_m| = e^{-a2} a2^m / m!
    diag_norm_sq = float(np.sum(probs**2))
    offdiag = kept**2 - diag_norm_sq
    return TruncatedPairState(cutoff, diag, max(offdiag, 0.0))


def state_fidelity(a: TruncatedPairState, b: TruncatedPairState) -> float:
    """Squared overlap |⟨a|b⟩|^2 between normalized pair states.

    Off-diagonal weight enters through the norms only; this is exact
    whenever at least one argument is purely diagonal.
    """
    if a.cutoff != b.cutoff:
        raise ValueError("states must share a cutoff")
    overlap = np.vdot(a.amplitudes, b.amplitudes) / (a.norm * b.norm)
    return float(abs(overlap) ** 2)


def oracle_size_error(pair_count: int, cutoff: int) -> str | None:
    """Why pair_count pairs at this cutoff are out of range, or None.

    The one range check for the pair states built here and for the
    oracle that `--method all` offers.
    """
    if pair_count > _MAX_PAIRS:
        return f"at most {_MAX_PAIRS} pairs are supported"
    if not 0 <= cutoff <= _MAX_CUTOFF:
        return f"cutoff must be in [0, {_MAX_CUTOFF}]"
    return None


def entangled_coherent_pairs(
    alphas, cutoff: int, pair_phases=None
) -> MultiPairState:
    """Product of phase-averaged coherent pair states, one per pair.

    Each pair contributes amplitudes proportional to alpha^{2m} / m! on
    |m, m⟩, the diagonal state left after averaging over the common
    phase of a coherent pair. Optional pair_phases multiply pair k's
    amplitude on |m, m⟩ by e^{i m theta_k}, which models idler phases
    that are independent rather than anticorrelated with the signal.
    The tensor product over pairs is normalized.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a non-empty 1-d sequence")
    p = alphas.size
    error = oracle_size_error(p, cutoff)
    if error is not None:
        raise ValueError(error)
    if pair_phases is not None:
        pair_phases = np.asarray(pair_phases, dtype=float)
        if pair_phases.shape != (p,):
            raise ValueError("pair_phases must have one entry per pair")

    ms = np.arange(cutoff + 1)
    log_fact = np.array([math.lgamma(m + 1) for m in ms])
    vectors = []
    for k, alpha in enumerate(alphas):
        mag = abs(alpha)
        if mag == 0:
            vec = np.zeros(cutoff + 1, dtype=complex)
            vec[0] = 1.0
        else:
            vec = np.exp(2 * ms * math.log(mag) - log_fact).astype(complex)
            vec *= (alpha / mag) ** (2 * ms)
        if pair_phases is not None:
            vec = vec * np.exp(1j * ms * pair_phases[k])
        vectors.append(vec)

    amps = vectors[0]
    for vec in vectors[1:]:
        amps = np.multiply.outer(amps, vec)
    amps = amps / np.linalg.norm(amps.ravel())
    return MultiPairState(p, cutoff, amps)


class FockOracle:
    """Exact normally ordered intensity correlation for a small lattice.

    The two detected fields are E1 = Σ_k e^{-i ω_{s,k} τ1} a_{s,k} and
    E2 = Σ_l e^{-i ω_{i,l} τ2} a_{i,l}, with signal modes routed to
    detector 1 and idler modes to detector 2. The moment
    ⟨E1† E2† E2 E1⟩ is the squared norm of Σ c_kl a_{s,k} a_{i,l}|Ψ⟩.
    Every ket of Ψ has m_s = m_i per pair, so a_{s,k} a_{i,l}|Ψ⟩ for
    k ≠ l is orthogonal to all the other terms and adds ⟨m_k m_l⟩ to a
    flat floor. The k = l terms stay in the diagonal basis, since
    a_{s,k} a_{i,k}|m_k, m_k⟩ = m_k |m_k - 1, m_k - 1⟩, and their P×P
    Gram matrix carries the comb; each delay then costs one small
    quadratic form. The common carrier phase has unit modulus and is
    dropped, leaving only detuning phases; field normalization constants
    are dropped as well, so values are meaningful up to an overall scale.
    """

    def __init__(self, lattice: ModeLattice, state: MultiPairState):
        if lattice.n_modes != state.pair_count:
            raise ValueError("lattice must have one mode pair per state pair")
        if lattice.delta_nu != 0.0:
            raise ValueError("the oracle models single-frequency modes only")
        self.lattice = lattice
        self.state = state
        amps = state.amplitudes
        p = state.pair_count
        ms = np.arange(state.cutoff + 1)
        occupations = np.ix_(*[ms] * p)

        # Σ_{k≠l} m_k m_l per ket, in exact integers, weighted by |c_m|^2.
        cross = sum(occupations) ** 2 - sum(m**2 for m in occupations)
        self._floor = float(np.sum(np.abs(amps) ** 2 * cross))

        # lowered[k] holds the amplitudes of a_{s,k} a_{i,k}|Ψ⟩:
        # entry m is (m_k + 1) c_{m + e_k}.
        lowered = np.zeros((p,) + amps.shape, dtype=complex)
        weights = ms[1:].reshape((-1,) + (1,) * (p - 1))
        for k in range(p):
            np.moveaxis(lowered[k], k, 0)[:-1] = np.moveaxis(amps, k, 0)[1:] * weights
        flat = lowered.reshape(p, -1)
        self._block = flat.conj() @ flat.T

    def g2(self, tau1: float, tau2: float) -> float:
        """Unnormalized correlation at retarded detector times tau1, tau2."""
        k = np.arange(self.state.pair_count)
        d = np.exp(-1j * TWO_PI * self.lattice.nu_b * k * (tau1 - tau2))
        value = self._floor + np.vdot(d, self._block @ d).real
        return max(float(value), 0.0)


def phase_scrambled_curve(
    lattice: ModeLattice,
    alphas,
    cutoff: int,
    taus,
    n_draws: int,
    seed: int,
) -> np.ndarray:
    """Mean oracle curve over random independent idler phases per pair.

    Replacing the anticorrelated pair phases by independent uniform
    draws removes the phase entanglement while keeping each beam's
    spectrum; the comb contrast of the averaged curve drops below the
    entangled value. Returned values share the oracle's raw scale.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    taus = np.asarray(taus, dtype=float)
    rng = derive_rng(seed, LABEL_PHASE_SCRAMBLE)
    total = np.zeros(taus.shape)
    p = len(alphas)
    for _ in range(n_draws):
        thetas = rng.uniform(0.0, TWO_PI, size=p)
        state = entangled_coherent_pairs(alphas, cutoff, pair_phases=thetas)
        oracle = FockOracle(lattice, state)
        total += np.array([oracle.g2(t, 0.0) for t in taus])
    return total / n_draws
