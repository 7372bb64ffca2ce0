"""Truncated Fock-space states and an exact correlation oracle.

This module verifies the analytic comb from first principles. States
live in a photon-number basis truncated at a per-mode cutoff, and the
fourth-order field moment behind g2 is evaluated by explicit operator
algebra, with no appeal to the closed form. Every multi-pair state is a
product of per-pair states, so a state of P pairs is held as P rows of
cutoff + 1 diagonal amplitudes, and the oracle reduces each row to a
few moments: O(P cutoff) memory and O(P) work per delay.

What the oracle checks on its own is limited at large P: its comb term
is the same exponential sum over modes that the direct method
evaluates. The independent content is the floor (the comb contrast as a
function of the pump strength alpha) and the normalization of the
truncated states.

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

TWO_PI = 2.0 * math.pi

_MAX_CUTOFF = 12


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
    """Product state over P mode pairs, diagonal per pair.

    amplitudes has shape (P, cutoff + 1); row k holds pair k's
    coefficients on |m⟩_s |m⟩_i, and the state is the tensor product of
    the rows. Every row is normalized.
    """

    pair_count: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.pair_count, self.cutoff + 1):
            raise ValueError("amplitudes must have one row of cutoff + 1 entries per pair")
        # Written so that a NaN row fails it too.
        if not np.all(np.abs(np.linalg.norm(amps, axis=1) - 1.0) <= 1e-12):
            raise ValueError("every pair's amplitudes must be normalized")
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
    raw = np.zeros(cutoff + 1)
    raw[0] = 1.0
    with np.errstate(over="ignore"):
        for m in range(top):
            raw[m + 1] = raw[m] * (n - m)
    if not np.isfinite(raw).all():
        raise OverflowError(f"raw coefficient for n={n}, m={top} exceeds double range")
    # Scaled by a power of two first, which is exact, so the squared norm
    # stays finite whenever the coefficients do.
    scaled = np.ldexp(raw, -math.frexp(raw[top])[1])
    amps = scaled / np.linalg.norm(scaled)
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


def entangled_coherent_pairs(
    alphas, cutoff: int, pair_phases=None
) -> MultiPairState:
    """Product of phase-averaged coherent pair states, one per pair.

    Each pair contributes amplitudes proportional to alpha^{2m} / m! on
    |m, m⟩, the diagonal state left after averaging over the common
    phase of a coherent pair. Optional pair_phases multiply pair k's
    amplitude on |m, m⟩ by e^{i m theta_k}, which models idler phases
    that are independent rather than anticorrelated with the signal.
    Each pair's row is normalized.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a non-empty 1-d sequence")
    p = alphas.size
    if not 0 <= cutoff <= _MAX_CUTOFF:
        raise ValueError(f"cutoff must be in [0, {_MAX_CUTOFF}]")
    if pair_phases is not None:
        pair_phases = np.asarray(pair_phases, dtype=float)
        if pair_phases.shape != (p,):
            raise ValueError("pair_phases must have one entry per pair")

    # Row k is z_k^m / m! with z_k = alpha_k^2 e^{i theta_k}, by recurrence.
    z = alphas**2 if pair_phases is None else alphas**2 * np.exp(1j * pair_phases)
    rows = np.empty((p, cutoff + 1), dtype=complex)
    rows[:, 0] = 1.0
    for m in range(1, cutoff + 1):
        rows[:, m] = rows[:, m - 1] * z / m
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return MultiPairState(p, cutoff, rows)


class FockOracle:
    """Exact normally ordered intensity correlation for a lattice.

    The two detected fields are E1 = Σ_k e^{-i ω_{s,k} τ1} a_{s,k} and
    E2 = Σ_l e^{-i ω_{i,l} τ2} a_{i,l}, with signal modes routed to
    detector 1 and idler modes to detector 2. The moment
    ⟨E1† E2† E2 E1⟩ is the squared norm of Σ c_kl a_{s,k} a_{i,l}|Ψ⟩.
    Every ket of Ψ has m_s = m_i per pair, so a_{s,k} a_{i,l}|Ψ⟩ for
    k ≠ l is orthogonal to all the other terms and adds ⟨m_k m_l⟩ to a
    flat floor. The k = l terms a_{s,k} a_{i,k}|Ψ⟩ carry the comb; their
    Gram matrix is ⟨m_k²⟩ on the diagonal and β̄_k β_l off it, since Ψ
    is a product over pairs, where β_k = ⟨a_{s,k} a_{i,k}⟩ =
    Σ_m m c̄_{m-1} c_m. With n̄_k = ⟨m_k⟩ and μ_k = ⟨m_k²⟩,

        g2 = (Σ n̄)² − Σ n̄² + Σ (μ − |β|²) + |Σ_k β_k d_k|²,

    with d_k the detuning phase of pair k. The common carrier phase has
    unit modulus and is dropped; field normalization constants are
    dropped as well, so values are meaningful up to an overall scale.
    """

    def __init__(self, lattice: ModeLattice, state: MultiPairState):
        if lattice.n_modes != state.pair_count:
            raise ValueError("lattice must have one mode pair per state pair")
        if lattice.delta_nu != 0.0:
            raise ValueError("the oracle models single-frequency modes only")
        self.lattice = lattice
        self.state = state
        amps = state.amplitudes
        ms = np.arange(state.cutoff + 1)
        probs = np.abs(amps) ** 2
        nbar = probs @ ms
        mu2 = probs @ ms**2
        self._beta = (amps[:, :-1].conj() * amps[:, 1:]) @ ms[1:]
        self._floor = float(
            nbar.sum() ** 2 - np.sum(nbar**2) + np.sum(mu2 - np.abs(self._beta) ** 2)
        )

    def g2(self, tau1: float, tau2: float) -> float:
        """Unnormalized correlation at retarded detector times tau1, tau2."""
        k = np.arange(self.state.pair_count)
        d = np.exp(-1j * TWO_PI * self.lattice.nu_b * k * (tau1 - tau2))
        value = self._floor + abs(np.dot(self._beta, d)) ** 2
        return max(float(value), 0.0)


def phase_scrambled_curve(lattice: ModeLattice, alphas, cutoff: int, taus) -> np.ndarray:
    """Mean oracle curve over independent uniform idler phases per pair.

    Replacing the anticorrelated pair phases by independent uniform
    draws removes the phase entanglement while keeping each beam's
    spectrum. A phase θ_k multiplies β_k by e^{iθ_k} and leaves n̄_k
    and μ_k alone, so the cross terms of |Σ_k β_k d_k|² average to zero
    and the mean is floor + Σ|β_k|² at every delay. Returned values
    share the oracle's raw scale.
    """
    oracle = FockOracle(lattice, entangled_coherent_pairs(alphas, cutoff))
    level = oracle._floor + float(np.sum(np.abs(oracle._beta) ** 2))
    return np.full(np.shape(taus), level)
