"""Truncated Fock-space states, an exact correlation oracle and the
fidelity diagnostic.

This module verifies the analytic comb from first principles. States
live in a photon-number basis truncated at a per-mode cutoff, and the
fourth-order field moment behind g2 is evaluated by explicit operator
algebra, with no appeal to the closed form. Every multi-pair state is a
product of per-pair states, so a state of P pairs is one (P, cutoff + 1)
array, a row of diagonal amplitudes per pair, and the oracle reduces
each row to a few moments: O(P cutoff) memory and O(P) work per delay.

What the oracle checks on its own is limited at large P: its comb term
is the same exponential sum over modes that the direct method
evaluates. The independent content is the floor (the comb contrast as a
function of the pump strength alpha) and the normalization of the
truncated states.

Pair states are held through their diagonal amplitudes c_m on the
kets |m⟩_s |m⟩_i. For phase-averaged coherent pairs this is the exact
description. The fidelity diagnostic's plain two-mode coherent product
also has off-diagonal number components; those carry no pair
correlations and enter only as an aggregate squared weight, so that its
norm and fidelity stay exact without materializing the off-diagonal
block.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import ModeLattice

TWO_PI = 2.0 * math.pi

_MAX_CUTOFF = 12


def _perturbation_amplitudes(n: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair state from the order-n expansion of the pair-creation exponential.

    The unnormalized coefficient on |m, m⟩ is the falling factorial
    n (n-1) ... (n-m+1), equal to binom(n, m) * m!, for m up to
    min(n, cutoff) and zero beyond. Returns the normalized amplitudes
    along with the raw coefficients, which are exact integers as long as
    they fit a double mantissa. The construction fails if any
    coefficient would overflow a double.
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
    return (scaled / np.linalg.norm(scaled)).astype(complex), raw


def _coherent_amplitudes(alpha: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Two-mode coherent product |alpha⟩_s |alpha⟩_i for real alpha >= 0, truncated.

    Returns the exact diagonal amplitudes e^{-alpha^2} alpha^{2m} / m! of
    the normalized product state on |m, m⟩, and the squared weight of
    its off-diagonal number components below the cutoff. Fails if
    truncation discards more than 1e-9 of the state's norm.
    """
    a2 = alpha**2
    ms = np.arange(cutoff + 1)
    # Single-mode probabilities P(m) = e^{-a2} a2^m / m!.
    log_probs = -a2 + ms * (math.log(a2) if a2 > 0 else 0.0) - np.array(
        [math.lgamma(m + 1) for m in ms]
    )
    probs = np.exp(log_probs) if a2 > 0 else np.eye(1, cutoff + 1, 0).ravel()
    kept = float(probs.sum())
    if 1.0 - kept**2 > 1e-9:
        raise ValueError(
            f"cutoff {cutoff} keeps only {kept**2:.12f} of the norm; "
            "raise the cutoff"
        )
    offdiag = kept**2 - float(np.sum(probs**2))
    return probs.astype(complex), max(offdiag, 0.0)


def fidelity_report(n: int, cutoff: int) -> dict:
    """Overlap of the order-n pair state with a coherent pair product.

    The coherent product |alpha⟩_s |alpha⟩_i has the order-n state's
    mean pair number, and both are truncated at `cutoff` photons per
    mode. The fidelity is |⟨a|b⟩|^2 over the two norms; the coherent
    product's off-diagonal weight enters through its norm only, which is
    exact because the order-n state is purely diagonal. Returns the
    fields `oracle` writes to fidelity_report.json. Raises ValueError or
    OverflowError for a pair that cannot be built.
    """
    pert, raw = _perturbation_amplitudes(n, cutoff)
    probs = np.abs(pert) ** 2
    mean = float(np.sum(probs * np.arange(cutoff + 1)) / np.sum(probs))
    alpha = math.sqrt(mean)
    coh, offdiag = _coherent_amplitudes(alpha, cutoff)
    coh_diag = float(np.sum(np.abs(coh) ** 2))
    norms = math.sqrt(float(np.sum(probs))) * math.sqrt(coh_diag + offdiag)
    return {
        "interaction_count_n": n,
        "cutoff": cutoff,
        "mean_pair_number": mean,
        "alpha_matched": alpha,
        "fidelity": float(abs(np.vdot(pert, coh) / norms) ** 2),
        "coherent_offdiag_norm_sq": offdiag,
        "coherent_truncation_deficit": max(0.0, 1.0 - (coh_diag + offdiag)),
        "max_raw_coefficient": float(raw.max()),
        "alpha_matching_rule": "mean pair number",
    }


def entangled_coherent_pairs(alphas, cutoff: int) -> np.ndarray:
    """Product of phase-averaged coherent pair states, one per pair.

    Each pair contributes amplitudes proportional to alpha^{2m} / m! on
    |m, m⟩, the diagonal state left after averaging over the common
    phase of a coherent pair. Returns the (P, cutoff + 1) array of the
    rows, each normalized or refused; the state is their tensor product.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a non-empty 1-d sequence")
    if not 0 <= cutoff <= _MAX_CUTOFF:
        raise ValueError(f"cutoff must be in [0, {_MAX_CUTOFF}]")

    # Row k is z_k^m / m! with z_k = alpha_k^2, by recurrence.
    z = alphas**2
    rows = np.empty((alphas.size, cutoff + 1), dtype=complex)
    rows[:, 0] = 1.0
    for m in range(1, cutoff + 1):
        rows[:, m] = rows[:, m - 1] * z / m
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # Written so that a NaN row, left by an overflow, fails it too.
    if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-12):
        raise ValueError("every pair's amplitudes must be normalized")
    return rows


def _moments(lattice: ModeLattice, amplitudes: np.ndarray) -> tuple[float, np.ndarray]:
    """The oracle's flat floor and per-pair coherences β_k (see oracle_g2)."""
    if lattice.n_modes != len(amplitudes):
        raise ValueError("lattice must have one mode pair per state pair")
    if lattice.delta_nu != 0.0:
        raise ValueError("the oracle models single-frequency modes only")
    ms = np.arange(amplitudes.shape[1])
    probs = np.abs(amplitudes) ** 2
    nbar = probs @ ms
    mu2 = probs @ ms**2
    beta = (amplitudes[:, :-1].conj() * amplitudes[:, 1:]) @ ms[1:]
    floor = float(nbar.sum() ** 2 - np.sum(nbar**2) + np.sum(mu2 - np.abs(beta) ** 2))
    return floor, beta


def oracle_g2(lattice: ModeLattice, amplitudes: np.ndarray, taus) -> np.ndarray:
    """Exact normally ordered intensity correlation of a pair state at
    retarded delays τ = τ1 - τ2, one pair per lattice mode pair.

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
    floor, beta = _moments(lattice, amplitudes)
    k = np.arange(len(beta))
    values = []
    for tau in taus:
        d = np.exp(-1j * TWO_PI * lattice.nu_b * k * tau)
        values.append(max(float(floor + abs(np.dot(beta, d)) ** 2), 0.0))
    return np.array(values)


def phase_scrambled_curve(lattice: ModeLattice, alphas, cutoff: int, taus) -> np.ndarray:
    """Mean oracle curve over independent uniform idler phases per pair.

    Replacing the anticorrelated pair phases by independent uniform
    draws removes the phase entanglement while keeping each beam's
    spectrum. A phase θ_k multiplies β_k by e^{iθ_k} and leaves n̄_k
    and μ_k alone, so the cross terms of |Σ_k β_k d_k|² average to zero
    and the mean is floor + Σ|β_k|² at every delay. Returned values
    share the oracle's raw scale.
    """
    floor, beta = _moments(lattice, entangled_coherent_pairs(alphas, cutoff))
    level = floor + float(np.sum(np.abs(beta) ** 2))
    return np.full(np.shape(taus), level)
