"""Tests for truncated pair states and the Fock-space oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from ghostcomb import (
    FockOracle,
    ModeLattice,
    MultiPairState,
    TruncatedPairState,
    build_coherent_product,
    build_perturbation_state,
    dirichlet_kernel,
    entangled_coherent_pairs,
    g2_closed,
    phase_scrambled_curve,
    state_fidelity,
)

CARRIER = 2.82e14


def lattice(n_pairs):
    return ModeLattice(n_modes=n_pairs, nu_b=20e3, nu_s0=CARRIER)


def _annihilate(arr, axis):
    """Apply the annihilation operator along one basis axis."""
    out = np.zeros_like(arr)
    dim = arr.shape[axis]
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    src[axis] = slice(1, dim)
    dst[axis] = slice(0, dim - 1)
    shape = [1] * arr.ndim
    shape[axis] = dim - 1
    weights = np.sqrt(np.arange(1, dim, dtype=float)).reshape(shape)
    out[tuple(dst)] = arr[tuple(src)] * weights
    return out


def product_tensor(state):
    """The (cutoff + 1)^P diagonal amplitudes of the product state.

    Entry [m1, ..., mP] is the coefficient on ⊗_k |m_k⟩_s |m_k⟩_i.
    """
    amps = state.amplitudes[0]
    for row in state.amplitudes[1:]:
        amps = np.multiply.outer(amps, row)
    return amps


def dense_reference_g2(lat, state, taus):
    """<E1+ E2+ E2 E1> by brute force in the full two-mode-per-pair basis.

    Expands the product state into (cutoff + 1)^(2 P) kets, axes ordered
    (s1, i1, s2, i2, ...), applies every a_{s,k} a_{i,l} and takes the
    quadratic form of their Gram matrix at each (tau, 0).
    """
    p = state.pair_count
    dim_per = state.cutoff + 1
    tensor = product_tensor(state)
    full = np.zeros((dim_per,) * (2 * p), dtype=complex)
    for occ in np.ndindex(*tensor.shape):
        full[tuple(x for m in occ for x in (m, m))] = tensor[occ]
    vectors = np.empty((p * p, full.size), dtype=complex)
    for k in range(p):
        lowered_s = _annihilate(full, 2 * k)
        for l in range(p):
            vectors[k * p + l] = _annihilate(lowered_s, 2 * l + 1).ravel()
    gram = vectors.conj() @ vectors.T
    k = np.arange(p)
    values = []
    for tau in taus:
        phase = np.exp(-1j * 2 * math.pi * lat.nu_b * k * tau)
        coeff = np.repeat(phase, p)  # c_kl = e^{-i k omega_b tau}
        values.append(np.vdot(coeff, gram @ coeff).real)
    return np.array(values)


class TestPerturbationState:
    def test_low_order_examples(self):
        _, raw = build_perturbation_state(1, 2)
        assert np.array_equal(raw, [1.0, 1.0, 0.0])
        _, raw = build_perturbation_state(0, 2)
        assert np.array_equal(raw, [1.0, 0.0, 0.0])
        _, raw = build_perturbation_state(2, 3)
        assert np.array_equal(raw, [1.0, 2.0, 2.0, 0.0])

    def test_matches_integer_falling_factorial(self):
        # Exact integer reference: n (n-1) ... (n-m+1) = C(n, m) m!.
        for n in range(61):
            _, raw = build_perturbation_state(n, 12)
            for m in range(13):
                exact = math.comb(n, m) * math.factorial(m) if m <= n else 0
                if exact == 0:
                    assert raw[m] == 0.0
                else:
                    assert raw[m] == pytest.approx(exact, rel=1e-12)

    def test_ratio_recurrence(self):
        n = 37
        _, raw = build_perturbation_state(n, 20)
        for m in range(min(n, 20)):
            assert raw[m + 1] / raw[m] == pytest.approx(n - m, rel=1e-12)

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            build_perturbation_state(171, 171)
        # The same n is fine when the cutoff keeps coefficients small.
        state, _ = build_perturbation_state(171, 10)
        assert np.isfinite(state.amplitudes).all()

    def test_normalized(self):
        state, _ = build_perturbation_state(50, 120)
        assert state.norm == pytest.approx(1.0, abs=1e-12)
        assert np.all(state.amplitudes[51:] == 0)

    def test_normalized_when_the_squared_norm_would_overflow(self):
        # 100! is about 9e157, so the sum of squared coefficients passes
        # the double range although every coefficient fits.
        for n in (100, 150, 170):
            state, raw = build_perturbation_state(n, 171)
            assert raw.max() > math.sqrt(np.finfo(float).max)
            assert state.norm == pytest.approx(1.0, abs=1e-12)
            assert state.mean_pair_number() == pytest.approx(n - 0.6978, abs=1e-3)

    def test_amplitudes_are_the_plain_normalization_where_it_fits(self):
        # Scaling by a power of two changes no bit while raw / |raw| is finite.
        for n in range(0, 98, 7):
            for cutoff in (0, 5, 120):
                state, raw = build_perturbation_state(n, cutoff)
                assert np.array_equal(state.amplitudes, raw / np.linalg.norm(raw))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_perturbation_state(-1, 5)
        with pytest.raises(ValueError):
            build_perturbation_state(3, -1)


class TestCoherentProduct:
    def test_vacuum(self):
        state = build_coherent_product(0.0, 3)
        assert np.array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])
        assert state.offdiag_norm_sq == 0.0

    def test_amplitude_ratio(self):
        alpha = 0.4 * np.exp(1j * 0.7)
        state = build_coherent_product(alpha, 10)
        assert state.amplitudes[1] / state.amplitudes[0] == pytest.approx(
            alpha**2, rel=1e-12
        )

    def test_weights_match_poisson(self):
        alpha, cutoff = 2.0, 40
        state = build_coherent_product(alpha, cutoff)
        a2 = abs(alpha) ** 2
        probs = np.array(
            [math.exp(-a2) * a2**m / math.factorial(m) for m in range(cutoff + 1)]
        )
        assert np.allclose(np.abs(state.amplitudes), probs, rtol=1e-10, atol=0)
        kept = probs.sum()
        assert state.norm == pytest.approx(kept, rel=1e-12)
        # Off-diagonal weight is everything in the truncated two-mode
        # product that is not on the |m, m> diagonal.
        offdiag = sum(
            probs[m] * probs[n]
            for m in range(cutoff + 1)
            for n in range(cutoff + 1)
            if m != n
        )
        assert state.offdiag_norm_sq == pytest.approx(offdiag, rel=1e-9)
        assert kept**2 >= 1 - 1e-9

    def test_undersized_cutoff_is_an_error(self):
        with pytest.raises(ValueError, match="norm"):
            build_coherent_product(2.0, 4)


class TestStateFidelity:
    def test_self_fidelity(self):
        state, _ = build_perturbation_state(8, 15)
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = TruncatedPairState(2, np.array([1.0, 0.0, 0.0], dtype=complex))
        b = TruncatedPairState(2, np.array([0.0, 1.0, 0.0], dtype=complex))
        assert state_fidelity(a, b) == 0.0

    def test_cutoff_mismatch(self):
        a = TruncatedPairState(1, np.array([1.0, 0.0], dtype=complex))
        b = TruncatedPairState(2, np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            state_fidelity(a, b)

    def test_perturbation_vs_matched_coherent(self):
        # The order-n pair state is far from any coherent product even
        # at matched mean photon number; pin the diagnostic value.
        state, _ = build_perturbation_state(50, 120)
        mean = state.mean_pair_number()
        assert mean == pytest.approx(49.302225342035996, rel=1e-12)
        coherent = build_coherent_product(math.sqrt(mean), 120)
        fid = state_fidelity(state, coherent)
        assert 0 < fid <= 1
        assert fid == pytest.approx(0.01026468026412822, rel=1e-6)


class TestEntangledCoherentPairs:
    def test_normalized_tensor(self):
        state = entangled_coherent_pairs([0.3, 0.5, 1.0], 6)
        assert state.amplitudes.shape == (3, 7)
        assert np.linalg.norm(state.amplitudes, axis=1) == pytest.approx(
            [1.0, 1.0, 1.0], abs=1e-12
        )
        assert np.linalg.norm(product_tensor(state).ravel()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_pair_profile(self):
        alpha, cutoff = 0.8, 9
        state = entangled_coherent_pairs([alpha], cutoff)
        ref = np.array([alpha ** (2 * m) / math.factorial(m) for m in range(cutoff + 1)])
        ref = ref / np.linalg.norm(ref)
        assert np.allclose(state.amplitudes[0], ref, rtol=1e-12, atol=1e-15)

    def test_rows_are_the_pairs(self):
        # Pair k's row depends on its own alpha and phase only, and a
        # zero alpha leaves that pair in the vacuum.
        alphas = [0.8, 0.0, 0.5j]
        phases = [0.0, 1.0, 2.0]
        state = entangled_coherent_pairs(alphas, 5, pair_phases=phases)
        for k, (alpha, phase) in enumerate(zip(alphas, phases)):
            alone = entangled_coherent_pairs([alpha], 5, pair_phases=[phase])
            assert np.array_equal(state.amplitudes[k], alone.amplitudes[0])
        assert np.array_equal(state.amplitudes[1], np.eye(1, 6, 0)[0])

    def test_zero_phases_are_identity(self):
        a = entangled_coherent_pairs([0.7, 0.7], 5)
        b = entangled_coherent_pairs([0.7, 0.7], 5, pair_phases=np.zeros(2))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_caps_and_validation(self):
        assert entangled_coherent_pairs([0.1] * 5, 4).amplitudes.shape == (5, 5)
        with pytest.raises(ValueError, match="cutoff"):
            entangled_coherent_pairs([0.1], 13)
        with pytest.raises(ValueError, match="cutoff"):
            entangled_coherent_pairs([0.1], -1)
        with pytest.raises(ValueError):
            entangled_coherent_pairs([], 4)
        with pytest.raises(ValueError):
            entangled_coherent_pairs([0.1, 0.2], 4, pair_phases=[0.0])


class TestMultiPairState:
    def test_requires_normalization(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[:, 0] = 1.0
        assert MultiPairState(2, 2, amps).amplitudes.shape == (2, 3)
        amps[1, 0] = 2.0
        with pytest.raises(ValueError, match="normalized"):
            MultiPairState(2, 2, amps)
        # An overflowed row normalizes to NaN, which must fail too.
        amps[1, 0] = np.nan
        with pytest.raises(ValueError, match="normalized"):
            MultiPairState(2, 2, amps)

    def test_requires_matching_shape(self):
        amps = np.zeros((3, 4), dtype=complex)
        amps[:, 0] = 1.0
        with pytest.raises(ValueError, match="row"):
            MultiPairState(2, 2, amps)
        with pytest.raises(ValueError, match="row"):
            MultiPairState(2, 2, np.eye(1, 9, 0).reshape(3, 3))


class TestFockOracle:
    def test_vacuum_gives_zero(self):
        state = entangled_coherent_pairs([0.0, 0.0], 3)
        oracle = FockOracle(lattice(2), state)
        assert oracle.g2(0.0, 0.0) == 0.0
        assert oracle.g2(1.3e-5, 0.0) == 0.0

    def test_single_pair_is_flat(self):
        state = entangled_coherent_pairs([0.5], 8)
        oracle = FockOracle(lattice(1), state)
        ref = oracle.g2(0.0, 0.0)
        assert ref > 0
        for tau in (1e-5, 2.7e-5, 6e-5):
            assert oracle.g2(tau, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_depends_only_on_time_difference(self):
        state = entangled_coherent_pairs([0.3, 0.6, 0.2], 5)
        oracle = FockOracle(lattice(3), state)
        for t1, t2 in ((3.1e-5, 1.1e-5), (5e-6, -7e-6), (0.0, 2.5e-5)):
            assert oracle.g2(t1, t2) == pytest.approx(
                oracle.g2(t1 - t2, 0.0), rel=1e-12
            )

    @pytest.mark.parametrize("n_pairs, cutoff", [(2, 8), (3, 6), (4, 3)])
    def test_matches_dense_reference(self, n_pairs, cutoff):
        # Unequal complex alphas and scrambled pair phases exercise the
        # cross-pair terms of the k = l block with distinct amplitudes.
        rng = np.random.default_rng(1000 * n_pairs + cutoff)
        alphas = rng.uniform(0.3, 0.9, n_pairs) * np.exp(
            1j * rng.uniform(0.0, 2 * math.pi, n_pairs)
        )
        phases = rng.uniform(0.0, 2 * math.pi, n_pairs)
        state = entangled_coherent_pairs(alphas, cutoff, pair_phases=phases)
        lat = lattice(n_pairs)
        taus = np.linspace(-0.5 / lat.nu_b, 0.5 / lat.nu_b, 41)
        oracle = FockOracle(lat, state)
        got = np.array([oracle.g2(t, 0.0) for t in taus])
        assert got == pytest.approx(dense_reference_g2(lat, state, taus), rel=1e-12)

    @pytest.mark.parametrize("n_pairs, cutoff", [(3, 6), (4, 6), (4, 12)])
    def test_matches_closed_form_weak_pump(self, n_pairs, cutoff):
        lat = lattice(n_pairs)
        state = entangled_coherent_pairs([0.01] * n_pairs, cutoff)
        oracle = FockOracle(lat, state)
        period = 1.0 / lat.nu_b
        taus = np.linspace(-period / 2, period / 2, 101)
        orc = np.array([oracle.g2(t, 0.0) for t in taus])
        orc = orc / orc.max()
        closed = np.asarray(g2_closed(lat, taus))
        assert np.max(np.abs(orc - closed)) < 1e-6

    def test_matches_independent_moment_formula(self):
        # Independent expansion of <E1+ E2+ E2 E1> for identical
        # diagonal pair states: the pair coherence chi = <a_i a_s>
        # carries the comb, photon-number moments fill the floor.
        n_pairs, cutoff, alpha = 3, 6, 0.9
        lat = lattice(n_pairs)
        state = entangled_coherent_pairs([alpha] * n_pairs, cutoff)
        c = entangled_coherent_pairs([alpha], cutoff).amplitudes[0]
        ms = np.arange(cutoff + 1)
        nbar = float(np.sum(np.abs(c) ** 2 * ms))
        mu2 = float(np.sum(np.abs(c) ** 2 * ms**2))
        chi = complex(np.sum(ms[1:] * np.conj(c[:-1]) * c[1:]))
        oracle = FockOracle(lat, state)
        taus = np.linspace(0.0, 1.0 / lat.nu_b, 17)
        for tau in taus:
            x = 2 * math.pi * lat.nu_b * tau
            kernel = dirichlet_kernel(n_pairs, x)
            expected = (
                abs(chi) ** 2 * kernel
                + n_pairs * (mu2 - abs(chi) ** 2)
                + n_pairs * (n_pairs - 1) * nbar**2
            )
            assert oracle.g2(tau, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_global_phase_invariance(self):
        state = entangled_coherent_pairs([0.4, 0.4], 5)
        rotated = MultiPairState(2, 5, state.amplitudes * np.exp([[1j * 1.234], [-0.5j]]))
        a = FockOracle(lattice(2), state)
        b = FockOracle(lattice(2), rotated)
        for tau in (0.0, 1.7e-5, 4.2e-5):
            assert a.g2(tau, 0.0) == pytest.approx(b.g2(tau, 0.0), rel=1e-12)

    def test_periodicity(self):
        lat = lattice(3)
        state = entangled_coherent_pairs([0.5] * 3, 6)
        oracle = FockOracle(lat, state)
        period = 1.0 / lat.nu_b
        for tau in (0.0, 1.1e-5, 2.3e-5):
            assert oracle.g2(tau + period, 0.0) == pytest.approx(
                oracle.g2(tau, 0.0), rel=1e-9
            )

    def test_paper_scale_builds_in_a_few_rows(self):
        # 10^4 pairs at the largest cutoff: the state is 10^4 rows of 13
        # amplitudes (2.08 MB), and the oracle keeps one moment per pair.
        n_pairs, cutoff = 10**4, 12
        tracemalloc.start()
        try:
            state = entangled_coherent_pairs(
                np.full(n_pairs, 0.01), cutoff, pair_phases=np.linspace(0.0, 6.0, n_pairs)
            )
            oracle = FockOracle(lattice(n_pairs), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000
        assert math.isfinite(oracle.g2(1e-6, 0.0))

    def test_guards(self):
        state = entangled_coherent_pairs([0.3, 0.3], 4)
        with pytest.raises(ValueError, match="pair"):
            FockOracle(lattice(3), state)
        bad = ModeLattice(n_modes=2, nu_b=20e3, nu_s0=CARRIER, delta_nu=10.0)
        with pytest.raises(ValueError, match="single-frequency"):
            FockOracle(bad, state)


class TestPhaseScramble:
    GRID = np.linspace(0.0, 5e-5, 41)

    @staticmethod
    def contrast(values):
        return (values.max() - values.min()) / (values.max() + values.min())

    def test_scrambling_reduces_contrast(self):
        lat = lattice(3)
        alphas = [1.0] * 3
        state = entangled_coherent_pairs(alphas, 6)
        oracle = FockOracle(lat, state)
        entangled = np.array([oracle.g2(t, 0.0) for t in self.GRID])
        scrambled = phase_scrambled_curve(lat, alphas, 6, self.GRID)
        assert self.contrast(scrambled) < 0.8 * self.contrast(entangled)

    def test_closed_level_matches_many_draw_average(self):
        # Reference: the oracle curve averaged over independent uniform
        # idler phases, one draw per pair.
        lat = lattice(3)
        alphas = [1.0, 0.8, 0.6]
        taus = self.GRID[::8]
        rng = np.random.default_rng(99)
        draws = np.array([
            [oracle.g2(t, 0.0) for t in taus]
            for oracle in (
                FockOracle(lat, entangled_coherent_pairs(
                    alphas, 6, pair_phases=rng.uniform(0.0, 2 * math.pi, 3)))
                for _ in range(2000)
            )
        ])
        closed = phase_scrambled_curve(lat, alphas, 6, taus)
        assert closed.shape == taus.shape
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(closed - draws.mean(axis=0)) <= 4 * stderr)
