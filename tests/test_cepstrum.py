import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal as sps

from karma.arma import ArmaModel
from karma.cepstrum import (
    CepstralObservation,
    CepstralVector,
    ResonanceState,
    arma_cepstra,
    arma_to_cepstrum,
    cepstrum_jacobian,
    real_cepstrum,
    state_to_cepstrum,
)
from karma.synthesis import resonator_cascade

from conftest import (
    FrozenCepstralObservation,
    frozen_columns,
    frozen_pole_powers,
    frozen_powers_cepstrum,
    frozen_powers_jacobian,
    random_minimum_phase_model,
    root_sum_cepstrum,
)


def random_state(rng, n_formants=None, n_antiformants=None, fs=10000.0):
    i = int(rng.integers(1, 5)) if n_formants is None else n_formants
    j = int(rng.integers(0, 3)) if n_antiformants is None else n_antiformants
    return ResonanceState(
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, i)),
        rng.uniform(20.0, 400.0, i),
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, j)),
        rng.uniform(20.0, 400.0, j),
        fs,
    )


def exp_cos_terms(freqs, bws, fs, n_coeffs):
    """Reference: decay exp(-pi n b / fs) and phase 2 pi n f / fs, each (..., N, K)."""
    n = np.arange(1, n_coeffs + 1, dtype=float)[:, None]
    decay = np.exp(-np.pi * n * np.asarray(bws)[..., None, :] / fs)
    arg = 2.0 * np.pi * n * np.asarray(freqs)[..., None, :] / fs
    return n, decay, arg


def exp_cos_cepstrum(freqs, bws, fs, n_coeffs):
    """Reference: (2/n) sum_k exp(-pi n b_k / fs) cos(2 pi n f_k / fs)."""
    if np.shape(freqs)[-1] == 0:
        return np.zeros(np.shape(freqs)[:-1] + (n_coeffs,))
    n, decay, arg = exp_cos_terms(freqs, bws, fs, n_coeffs)
    return (2.0 / n[:, 0]) * (decay * np.cos(arg)).sum(axis=-1)


def exp_cos_blocks(freqs, bws, fs, n_coeffs, sign):
    """Reference (dC/df, dC/db) blocks, each (N, K); antiformants flip the sign."""
    if np.size(freqs) == 0:
        return np.zeros((n_coeffs, 0)), np.zeros((n_coeffs, 0))
    _, decay, arg = exp_cos_terms(freqs, bws, fs, n_coeffs)
    d_freq = sign * (-4.0 * np.pi / fs) * decay * np.sin(arg)
    d_bw = sign * (-2.0 * np.pi / fs) * decay * np.cos(arg)
    return d_freq, d_bw


def exp_cos_linearize(x, n_formants, n_antiformants, fs, n_coeffs, active_f, active_a):
    """Reference h and Jacobian: inactive tracks left out of h, their columns zero."""
    i, j = n_formants, n_antiformants
    f, b, fa, ba = x[:i], x[i : 2 * i], x[2 * i : 2 * i + j], x[2 * i + j :]
    h = exp_cos_cepstrum(f[active_f], b[active_f], fs, n_coeffs) - exp_cos_cepstrum(
        fa[active_a], ba[active_a], fs, n_coeffs
    )
    df, db = exp_cos_blocks(f, b, fs, n_coeffs, +1.0)
    daf, dab = exp_cos_blocks(fa, ba, fs, n_coeffs, -1.0)
    for block, active in ((df, active_f), (db, active_f), (daf, active_a), (dab, active_a)):
        block[:, ~active] = 0.0
    return h, np.hstack([df, db, daf, dab])


@st.composite
def resonance_problems(draw):
    """Track counts, N, fs, a state reaching the clamp bounds, and activation flags."""
    i = draw(st.integers(1, 3))
    j = draw(st.integers(0, 2))
    n_coeffs = draw(st.integers(1, 30))
    fs = draw(st.floats(4000.0, 16000.0))
    lo, hi = 0.005 * fs, 0.495 * fs
    freq = st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))
    freqs = draw(st.lists(freq, min_size=i + j, max_size=i + j))
    bws = draw(st.lists(st.floats(1.0, 5000.0), min_size=i + j, max_size=i + j))
    x = np.concatenate([freqs[:i], bws[:i], freqs[i:], bws[i:]])
    active_f = draw(arrays(bool, i))
    active_a = draw(arrays(bool, j))
    return i, j, n_coeffs, fs, x, active_f, active_a


class TestPolePowerFormula:
    """The pole-power route against the exp/cos/sin formula it replaced."""

    @settings(deadline=None, max_examples=200)
    @given(problem=resonance_problems())
    def test_linearize_matches_exp_cos(self, problem):
        i, j, n_coeffs, fs, x, active_f, active_a = problem
        model = CepstralObservation(i, j, n_coeffs, fs)
        h, H = model.linearize(x, active_f, active_a)
        h_ref, H_ref = exp_cos_linearize(x, i, j, fs, n_coeffs, active_f, active_a)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-14)

    @settings(deadline=None, max_examples=100)
    @given(problem=resonance_problems())
    def test_state_routes_match_exp_cos(self, problem):
        i, j, n_coeffs, fs, x, _, _ = problem
        state = ResonanceState.from_vector(x, i, j, fs)
        h_ref, H_ref = exp_cos_linearize(
            x, i, j, fs, n_coeffs, np.ones(i, bool), np.ones(j, bool)
        )
        np.testing.assert_allclose(
            state_to_cepstrum(state, n_coeffs).coeffs, h_ref, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(cepstrum_jacobian(state, n_coeffs), H_ref, rtol=1e-12, atol=1e-14)

    @settings(deadline=None, max_examples=60)
    @given(
        problem=resonance_problems(),
        lead=st.sampled_from([(1,), (7,), (3, 4), (1000,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_value_equals_rowwise_linearize(self, problem, lead, seed):
        i, j, n_coeffs, fs, x, active_f, active_a = problem
        model = CepstralObservation(i, j, n_coeffs, fs)
        jitter = np.random.default_rng(seed).uniform(0.9, 1.0, lead + x.shape)
        states = x * jitter
        stacked = model.value(states, active_f, active_a)
        rows = np.array([model.linearize(s, active_f, active_a)[0] for s in states.reshape(-1, x.size)])
        assert stacked.shape == lead + (n_coeffs,)
        assert np.array_equal(stacked.reshape(-1, n_coeffs), rows)


def random_states(rng, n_formants, n_antiformants, lead, fs=10000.0):
    """States (*lead, dim) with frequencies in (0, fs/2) and bandwidths 20-400 Hz."""
    i, j = n_formants, n_antiformants
    return np.concatenate([
        rng.uniform(0.005 * fs, 0.495 * fs, lead + (i,)),
        rng.uniform(20.0, 400.0, lead + (i,)),
        rng.uniform(0.005 * fs, 0.495 * fs, lead + (j,)),
        rng.uniform(20.0, 400.0, lead + (j,)),
    ], axis=-1)


# formants (+1), antiformants (-1), both, and K = 0, whose cepstra are zeros
TRACK_COUNTS = [(4, 0), (2, 1), (0, 2), (3, 2), (0, 0)]


class TestFrozenReferenceKernel:
    """The resonance-major kernel against a frozen copy of the resonance-last
    running-product and k-sum kernel it replaced: equal bit for bit."""

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    @pytest.mark.parametrize("lead", [(), (1000,), (1001,), (3, 4)])
    @pytest.mark.parametrize("some_inactive", [False, True])
    def test_value_equals_frozen(self, counts, lead, some_inactive):
        i, j = counts
        rng = np.random.default_rng([i, j, sum(lead), some_inactive])
        x = random_states(rng, i, j, lead)
        flags = (rng.random(i) < 0.5, rng.random(j) < 0.5) if some_inactive else (None, None)
        model = CepstralObservation(i, j, 15, 10000.0)
        frozen = FrozenCepstralObservation(i, j, 15, 10000.0)
        out = model.value(x, *flags)
        assert out.shape == lead + (15,)
        assert np.array_equal(out, frozen.value(x, *flags))

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    @pytest.mark.parametrize("n_coeffs", [1, 15, 30])
    def test_linearize_equals_frozen(self, counts, n_coeffs):
        i, j = counts
        rng = np.random.default_rng(7 * i + j + n_coeffs)
        model = CepstralObservation(i, j, n_coeffs, 8000.0)
        frozen = FrozenCepstralObservation(i, j, n_coeffs, 8000.0)
        for _ in range(20):
            x = random_states(rng, i, j, (), fs=8000.0)
            flags = (rng.random(i) < 0.5, rng.random(j) < 0.5)
            for active in ((None, None), flags):
                h, H = model.linearize(x, *active)
                h_ref, H_ref = frozen.linearize(x, *active)
                assert h.shape == (n_coeffs,) and H.shape == (n_coeffs, 2 * i + 2 * j)
                assert np.array_equal(h, h_ref)
                assert np.array_equal(H, H_ref)

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    def test_state_routes_equal_frozen(self, counts):
        i, j = counts
        rng = np.random.default_rng(11 * i + j)
        freq_cols, bw_cols, signs = frozen_columns(i, j)
        for _ in range(20):
            x = random_states(rng, i, j, ())
            state = ResonanceState.from_vector(x, i, j, 10000.0)
            powers = frozen_pole_powers(x[freq_cols], x[bw_cols], 10000.0, 12)
            assert np.array_equal(
                state_to_cepstrum(state, 12).coeffs, frozen_powers_cepstrum(powers, signs)
            )
            assert np.array_equal(
                cepstrum_jacobian(state, 12),
                frozen_powers_jacobian(powers, signs, 10000.0, freq_cols, bw_cols),
            )


class TestArmaToCepstrum:
    def test_empty_model_zero_cepstrum(self):
        m = ArmaModel([], [], 1.0)
        assert np.all(arma_to_cepstrum(m, 10).coeffs == 0.0)

    def test_single_pole_series(self):
        m = ArmaModel([0.5], [], 1.0)
        c = arma_to_cepstrum(m, 3)
        assert c.coeffs == pytest.approx([0.5, 0.125, 0.0416667], abs=1e-7)

    def test_matches_root_sum_oracle(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 21))
            q = int(rng.integers(0, 9))
            m = random_minimum_phase_model(rng, p, q)
            c = arma_to_cepstrum(m, 30).coeffs
            assert np.abs(c - root_sum_cepstrum(m, 30)).max() < 1e-10

    def test_non_minimum_phase_rejected(self):
        m = ArmaModel([2.0], [], 1.0)
        with pytest.raises(ValueError, match="reflect roots"):
            arma_to_cepstrum(m, 5)

    @pytest.mark.parametrize("outside", ["ar", "ma"])
    def test_row_outside_raises_in_any_position(self, rng, outside):
        models = [random_minimum_phase_model(rng, 4, 2) for _ in range(3)]
        ar = np.array([m.ar for m in models])
        ma = np.array([m.ma for m in models])
        assert arma_cepstra(ar, ma, 10).shape == (3, 10)
        for t in range(3):
            bad_ar, bad_ma = ar.copy(), ma.copy()
            (bad_ar if outside == "ar" else bad_ma)[t] *= 30.0  # a root far outside the circle
            with pytest.raises(ValueError, match="reflect roots"):
                arma_cepstra(bad_ar, bad_ma, 10)

    def test_ma_sign_convention(self):
        # single zero at -0.5 (numerator 1 + 0.5 z^-1): C_n = -(-0.5)^n / n
        m = ArmaModel([], [0.5], 1.0)
        c = arma_to_cepstrum(m, 3)
        assert c.coeffs == pytest.approx([0.5, -0.125, 0.125 / 3.0], abs=1e-12)


class TestStateToCepstrum:
    def test_quarter_rate_pattern(self):
        st_ = ResonanceState([2500.0], [0.0], [], [], 10000.0)
        c = state_to_cepstrum(st_, 4)
        assert c.coeffs == pytest.approx([0.0, -1.0, 0.0, 0.5], abs=1e-12)

    def test_formant_antiformant_cancellation(self):
        st_ = ResonanceState([1200.0], [90.0], [1200.0], [90.0], 8000.0)
        assert np.all(np.abs(state_to_cepstrum(st_, 20).coeffs) < 1e-15)

    def test_matches_cascade_cepstrum(self, rng):
        for _ in range(50):
            x = random_state(rng)
            c1 = state_to_cepstrum(x, 30).coeffs
            c2 = arma_to_cepstrum(resonator_cascade(x), 30).coeffs
            assert np.abs(c1 - c2).max() < 1e-9

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**31))
    def test_decay_bound(self, seed):
        x = random_state(np.random.default_rng(seed))
        c = state_to_cepstrum(x, 25).coeffs
        n = np.arange(1, 26)
        bound = (2.0 / n) * (x.n_formants + x.n_antiformants)
        assert np.all(np.abs(c) <= bound + 1e-12)


class TestCepstrumJacobian:
    def test_zero_frequency_limit(self):
        x = ResonanceState([1e-9], [50.0], [], [], 8000.0)
        jac = cepstrum_jacobian(x, 5)
        assert np.abs(jac[:, 0]).max() < 1e-10

    def test_bandwidth_column_zero_at_quarter_rate(self):
        x = ResonanceState([2000.0], [50.0], [], [], 8000.0)
        jac = cepstrum_jacobian(x, 1)
        assert jac[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_match(self, rng):
        fs = 10000.0
        for _ in range(20):
            x = random_state(rng, fs=fs)
            i, j = x.n_formants, x.n_antiformants
            jac = cepstrum_jacobian(x, 15)
            vec = x.to_vector()
            fd = np.zeros_like(jac)
            for k in range(vec.size):
                up, dn = vec.copy(), vec.copy()
                up[k] += 1e-4
                dn[k] -= 1e-4
                cu = state_to_cepstrum(ResonanceState.from_vector(up, i, j, fs), 15).coeffs
                cd = state_to_cepstrum(ResonanceState.from_vector(dn, i, j, fs), 15).coeffs
                fd[:, k] = (cu - cd) / 2e-4
            assert np.abs(jac - fd).max() / np.abs(jac).max() < 1e-6

    def test_antiformant_columns_negate_formant_columns(self):
        fs = 9000.0
        x = ResonanceState([1400.0], [110.0], [1400.0], [110.0], fs)
        jac = cepstrum_jacobian(x, 12)
        # columns: f, b, f', b'
        assert np.allclose(jac[:, 2], -jac[:, 0])
        assert np.allclose(jac[:, 3], -jac[:, 1])


class TestRealCepstrum:
    def test_unit_impulse_flat(self):
        frame = np.zeros(64)
        frame[0] = 1.0
        assert np.abs(real_cepstrum(frame, 10).coeffs).max() < 1e-12

    def test_matches_model_cepstrum_for_long_impulse_response(self):
        impulse = np.zeros(4096)
        impulse[0] = 1.0
        h = sps.lfilter([1.0], [1.0, -1.0, 0.5], impulse)
        c = real_cepstrum(h, 5).coeffs
        ref = arma_to_cepstrum(ArmaModel([1.0, -0.5], [], 1.0), 5).coeffs
        assert np.abs(c - ref).max() < 0.01

    @settings(deadline=None, max_examples=25)
    @given(scale=st.floats(0.1, 100.0), seed=st.integers(0, 2**31))
    def test_gain_invariant(self, scale, seed):
        frame = np.random.default_rng(seed).standard_normal(256)
        c1 = real_cepstrum(frame, 8).coeffs
        c2 = real_cepstrum(scale * frame, 8).coeffs
        assert np.abs(c1 - c2).max() < 1e-9

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError, match="log spectrum"):
            real_cepstrum(np.zeros(32), 4)


class TestCepstralVector:
    def test_one_based_indexing(self):
        c = CepstralVector([0.5, 0.25])
        assert c[1] == 0.5 and c[2] == 0.25
        with pytest.raises(IndexError):
            _ = c[0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CepstralVector([np.nan])
