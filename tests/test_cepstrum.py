import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal as sps

from karma.arma import ArmaModel, _minimum_phase_rows
from karma.cepstrum import (
    CepstralObservation,
    _real_cepstra,
    arma_cepstra,
    arma_to_cepstrum,
    real_cepstrum,
    state_columns,
)
from karma.evaluation import _header, read_tracks, write_tracks
from karma.pipeline import RunConfig, make_tracker_params
from karma.tracker import TrackActivation, _make_result, default_params, ekf_filter

from conftest import (
    FrozenCepstralObservation,
    cascade_model,
    frozen_columns,
    frozen_pole_powers,
    frozen_powers_cepstrum,
    frozen_powers_jacobian,
    frozen_real_cepstra,
    random_minimum_phase_model,
    root_sum_cepstrum,
)


def random_state(rng, n_formants=None, n_antiformants=None, fs=10000.0):
    """A state vector (f_1..f_I, b_1..b_I, f'_1..f'_J, b'_1..b'_J) with sorted
    frequencies, and its track counts I and J."""
    i = int(rng.integers(1, 5)) if n_formants is None else n_formants
    j = int(rng.integers(0, 3)) if n_antiformants is None else n_antiformants
    x = np.concatenate([
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, i)),
        rng.uniform(20.0, 400.0, i),
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, j)),
        rng.uniform(20.0, 400.0, j),
    ])
    return x, i, j


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


def entry_flags(active_f, active_a):
    """One frame's per-entry flags (dim,): each track's flag on its frequency and bandwidth entry."""
    return np.concatenate([active_f, active_f, active_a, active_a])


# tolerance between h or H from two power kernels: closed form, running product, exp/cos
CLOSE = dict(rtol=1e-12, atol=1e-14)
# tolerance between ``value``, whose poles come from real exp, cos and sin,
# and the frozen kernel's complex exp at N <= 15 and bandwidths of 20-400 Hz:
# they differed by at most 1.8e-15
STACKED = dict(rtol=0.0, atol=1e-13)


@st.composite
def resonance_problems(draw, min_formants=1):
    """Track counts, N, fs, a state reaching the clamp bounds, and activation flags."""
    i = draw(st.integers(min_formants, 3))
    j = draw(st.integers(0, 2))
    n_coeffs = draw(st.one_of(st.just(30), st.integers(1, 30)))
    fs = draw(st.floats(4000.0, 16000.0))
    lo, hi = 0.005 * fs, 0.495 * fs
    freq = st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))
    freqs = draw(st.lists(freq, min_size=i + j, max_size=i + j))
    bw = st.one_of(st.just(1.0), st.floats(1.0, 5000.0))
    bws = draw(st.lists(bw, min_size=i + j, max_size=i + j))
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
        h, H = model.linearize(x, entry_flags(active_f, active_a))
        h_ref, H_ref = exp_cos_linearize(x, i, j, fs, n_coeffs, active_f, active_a)
        np.testing.assert_allclose(h, h_ref, **CLOSE)
        np.testing.assert_allclose(H, H_ref, **CLOSE)

    @settings(deadline=None, max_examples=100)
    @given(problem=resonance_problems())
    def test_state_routes_match_exp_cos(self, problem):
        """``value`` and ``linearize`` of one state with no activation flags."""
        i, j, n_coeffs, fs, x, _, _ = problem
        model = CepstralObservation(i, j, n_coeffs, fs)
        h_ref, H_ref = exp_cos_linearize(
            x, i, j, fs, n_coeffs, np.ones(i, bool), np.ones(j, bool)
        )
        h, H = model.linearize(x)
        np.testing.assert_allclose(model.value(x), h_ref, **CLOSE)
        np.testing.assert_allclose(h, h_ref, **CLOSE)
        np.testing.assert_allclose(H, H_ref, **CLOSE)

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
        flags = entry_flags(active_f, active_a)
        stacked = model.value(states, flags)
        rows = np.array([model.linearize(s, flags)[0] for s in states.reshape(-1, x.size)])
        assert stacked.shape == lead + (n_coeffs,)
        np.testing.assert_allclose(stacked.reshape(-1, n_coeffs), rows, **CLOSE)

    @settings(deadline=None, max_examples=200)
    @given(problem=resonance_problems(min_formants=0))
    @example(problem=(0, 0, 30, 8000.0, np.zeros(0), np.zeros(0, bool), np.zeros(0, bool)))
    def test_linearize_matches_running_product(self, problem):
        i, j, n_coeffs, fs, x, active_f, active_a = problem
        model = CepstralObservation(i, j, n_coeffs, fs)
        flags = entry_flags(active_f, active_a)
        h, H = model.linearize(x, flags)
        freq_cols, bw_cols, _ = frozen_columns(i, j)
        powers = frozen_pole_powers(x[freq_cols], x[bw_cols], fs, n_coeffs)
        signs = model._pattern(flags)[0]
        assert h.shape == (n_coeffs,) and H.shape == (n_coeffs, x.size)
        np.testing.assert_allclose(h, frozen_powers_cepstrum(powers, signs), **CLOSE)
        np.testing.assert_allclose(
            H, frozen_powers_jacobian(powers, signs, fs, freq_cols, bw_cols), **CLOSE
        )


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
    """``value`` and ``linearize`` against a frozen copy of the resonance-last
    running-product and k-sum kernel: ``value``, whose poles come from real
    exp, cos and sin, to ``STACKED``; ``linearize``, whose powers are in
    closed form, to 1e-12."""

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    @pytest.mark.parametrize("lead", [(), (1000,), (1001,), (3, 4)])
    @pytest.mark.parametrize("some_inactive", [False, True])
    def test_value_equals_frozen(self, counts, lead, some_inactive):
        i, j = counts
        rng = np.random.default_rng([i, j, sum(lead), some_inactive])
        x = random_states(rng, i, j, lead)
        flags = entry_flags(rng.random(i) < 0.5, rng.random(j) < 0.5) if some_inactive else None
        model = CepstralObservation(i, j, 15, 10000.0)
        frozen = FrozenCepstralObservation(i, j, 15, 10000.0)
        out = model.value(x, flags)
        assert out.shape == lead + (15,)
        np.testing.assert_allclose(out, frozen.value(x, flags), **STACKED)

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    @pytest.mark.parametrize("n_coeffs", [1, 15, 30])
    def test_linearize_equals_frozen(self, counts, n_coeffs):
        i, j = counts
        rng = np.random.default_rng(7 * i + j + n_coeffs)
        model = CepstralObservation(i, j, n_coeffs, 8000.0)
        frozen = FrozenCepstralObservation(i, j, n_coeffs, 8000.0)
        for _ in range(20):
            x = random_states(rng, i, j, (), fs=8000.0)
            flags = entry_flags(rng.random(i) < 0.5, rng.random(j) < 0.5)
            for active in (None, flags):
                h, H = model.linearize(x, active)
                h_ref, H_ref = frozen.linearize(x, active)
                assert h.shape == (n_coeffs,) and H.shape == (n_coeffs, 2 * i + 2 * j)
                np.testing.assert_allclose(h, h_ref, **CLOSE)
                np.testing.assert_allclose(H, H_ref, **CLOSE)

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    @pytest.mark.parametrize("n_coeffs", [1, 15, 30])
    def test_jacobian_equals_gather_and_scale(self, counts, n_coeffs):
        """H from the map product has the bits of the former route: log z from
        one gather and scale, then one column gather of the powers' real view
        and one multiply by per-column scales."""
        i, j = counts
        k, fs = i + j, 8000.0
        rng = np.random.default_rng(13 * i + j + n_coeffs)
        freq_cols, bw_cols, _ = frozen_columns(i, j)
        gather = np.empty(2 * k, dtype=np.intp)
        gather[freq_cols], gather[bw_cols] = 2 * np.arange(k) + 1, 2 * np.arange(k)
        model = CepstralObservation(i, j, n_coeffs, fs)
        for _ in range(20):
            x = random_states(rng, i, j, (), fs=fs)
            for active in (None, entry_flags(rng.random(i) < 0.5, rng.random(j) < 0.5)):
                polar = x[np.r_[bw_cols, freq_cols]] * (np.repeat([-np.pi, 2.0 * np.pi], k) / fs)
                powers = np.exp(np.arange(1, n_coeffs + 1, dtype=float)[:, None] * (polar[:k] + 1j * polar[k:]))
                scale = (-2.0 * np.pi / fs) * model._pattern(active)[0]
                col_scale = np.empty(2 * k)
                col_scale[freq_cols], col_scale[bw_cols] = 2.0 * scale, scale
                H_ref = powers.view(float).take(gather, axis=1) * col_scale
                assert np.array_equal(model.linearize(x, active)[1], H_ref)

    @pytest.mark.parametrize("counts", TRACK_COUNTS)
    def test_state_routes_equal_frozen(self, counts):
        i, j = counts
        rng = np.random.default_rng(11 * i + j)
        freq_cols, bw_cols, signs = frozen_columns(i, j)
        model = CepstralObservation(i, j, 12, 10000.0)
        for _ in range(20):
            x = random_states(rng, i, j, ())
            powers = frozen_pole_powers(x[freq_cols], x[bw_cols], 10000.0, 12)
            np.testing.assert_allclose(
                model.value(x), frozen_powers_cepstrum(powers, signs), **STACKED
            )
            np.testing.assert_allclose(
                model.linearize(x)[1],
                frozen_powers_jacobian(powers, signs, 10000.0, freq_cols, bw_cols),
                **CLOSE,
            )


def longdouble_cepstrum(x, n_formants, n_antiformants, fs, n_coeffs):
    """Reference h in np.longdouble: (2/n) sum_k s_k exp(-pi n b_k/fs) cos(2 pi n f_k/fs)."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    i, j = n_formants, n_antiformants
    xl = x.astype(np.longdouble)
    f = np.concatenate([xl[:i], xl[2 * i : 2 * i + j]])
    b = np.concatenate([xl[i : 2 * i], xl[2 * i + j :]])
    signs = np.concatenate([np.ones(i), -np.ones(j)]).astype(np.longdouble)
    n = np.arange(1, n_coeffs + 1, dtype=np.longdouble)[:, None]
    terms = np.exp(-pi * n * b / fs) * np.cos(2 * pi * n * f / fs)
    return (terms @ signs) * (2 / n[:, 0])


class TestStackedValue:
    """``value``: its accuracy, and each state of a stack getting the bits
    of its own call."""

    @pytest.mark.parametrize("n_coeffs", [1, 2, 15, 60])
    @pytest.mark.parametrize("counts", [(1, 0), (4, 0), (3, 2)])
    @pytest.mark.parametrize("fs", [8000.0, 10000.0])
    def test_matches_longdouble_closed_form(self, n_coeffs, counts, fs):
        """Each term Re z^n within 3e-14, so h_n within (2K/n) 3e-14: the
        running product's error grows with n, to at most 9.2e-15 a term at
        N = 60 over fs 4-16 kHz, at the frequency bounds and mid-band, with
        1 Hz and 100 Hz bandwidths."""
        i, j = counts
        model = CepstralObservation(i, j, n_coeffs, fs)
        lo, hi = model.state_bounds()
        rng = np.random.default_rng([n_coeffs, i, j, int(fs)])
        bound = 2 * (i + j) * 3e-14 / np.arange(1, n_coeffs + 1)
        for _ in range(50):
            x = np.concatenate([
                rng.choice([lo[0], hi[0], rng.uniform(lo[0], hi[0])], i),
                rng.choice([1.0, rng.uniform(1.0, 500.0)], i),
                rng.choice([lo[0], hi[0], rng.uniform(lo[0], hi[0])], j),
                rng.choice([1.0, rng.uniform(1.0, 500.0)], j),
            ])
            err = np.abs(model.value(x) - longdouble_cepstrum(x, i, j, fs, n_coeffs))
            assert np.all(err.astype(float) <= bound)

    @pytest.mark.parametrize("lead", [(1,), (2,), (1000,), (3, 4), (1, 1)])
    @pytest.mark.parametrize("some_inactive", [False, True])
    def test_stack_rows_equal_own_calls(self, lead, some_inactive):
        """Nine resonances: over one state numpy would sum a contiguous run
        of nine pairwise, and a stack sums slab by slab."""
        i, j = 6, 3
        rng = np.random.default_rng([len(lead), sum(lead), some_inactive])
        x = random_states(rng, i, j, lead)
        flags = entry_flags(rng.random(i) < 0.5, rng.random(j) < 0.5) if some_inactive else None
        model = CepstralObservation(i, j, 20, 10000.0)
        stacked = model.value(x, flags).reshape(-1, 20)
        rows = np.array([model.value(s, flags) for s in x.reshape(-1, 2 * (i + j))])
        assert np.array_equal(stacked, rows)


class TestArmaToCepstrum:
    def test_empty_model_zero_cepstrum(self):
        m = ArmaModel([], [], 1.0)
        assert np.all(arma_to_cepstrum(m, 10) == 0.0)

    def test_single_pole_series(self):
        m = ArmaModel([0.5], [], 1.0)
        c = arma_to_cepstrum(m, 3)
        assert c == pytest.approx([0.5, 0.125, 0.0416667], abs=1e-7)

    def test_matches_root_sum_oracle(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 21))
            q = int(rng.integers(0, 9))
            m = random_minimum_phase_model(rng, p, q)
            c = arma_to_cepstrum(m, 30)
            assert np.abs(c - root_sum_cepstrum(m, 30)).max() < 1e-10

    def test_non_minimum_phase_rejected(self):
        m = ArmaModel([2.0], [], 1.0)
        with pytest.raises(ValueError, match="reflect roots"):
            arma_to_cepstrum(m, 5)

    @pytest.mark.parametrize(
        "ar, ma",
        [
            (np.array([[np.nan, 0.1]]), np.zeros((1, 0))),
            (np.array([[0.5, 0.1]]), np.array([[0.2, np.inf]])),
            (np.array([[-np.inf]]), np.array([[0.3]])),
        ],
    )
    def test_non_finite_row_is_not_minimum_phase(self, ar, ma):
        with pytest.raises(ValueError, match="reflect roots"):
            arma_cepstra(ar, ma, 5)
        assert not _minimum_phase_rows(ar, ma, 1.0)[0]
        good = random_minimum_phase_model(np.random.default_rng(0), ar.shape[1], ma.shape[1])
        stacked = (np.vstack([good.ar, ar[0]]), np.vstack([good.ma, ma[0]]))
        with pytest.raises(ValueError, match="reflect roots"):
            arma_cepstra(*stacked, 5)

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
        assert c == pytest.approx([0.5, -0.125, 0.125 / 3.0], abs=1e-12)


class TestStateToCepstrum:
    """``CepstralObservation.value`` of one state vector."""

    def test_quarter_rate_pattern(self):
        c = CepstralObservation(1, 0, 4, 10000.0).value(np.array([2500.0, 0.0]))
        assert c == pytest.approx([0.0, -1.0, 0.0, 0.5], abs=1e-12)

    def test_formant_antiformant_cancellation(self):
        c = CepstralObservation(1, 1, 20, 8000.0).value(np.array([1200.0, 90.0, 1200.0, 90.0]))
        assert np.all(np.abs(c) < 1e-15)

    def test_matches_cascade_cepstrum(self, rng):
        fs = 10000.0
        for _ in range(50):
            x, i, j = random_state(rng, fs=fs)
            c1 = CepstralObservation(i, j, 30, fs).value(x)
            c2 = arma_to_cepstrum(cascade_model(x, i, j, fs), 30)
            assert np.abs(c1 - c2).max() < 1e-9

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**31))
    def test_decay_bound(self, seed):
        x, i, j = random_state(np.random.default_rng(seed))
        c = CepstralObservation(i, j, 25, 10000.0).value(x)
        n = np.arange(1, 26)
        bound = (2.0 / n) * (i + j)
        assert np.all(np.abs(c) <= bound + 1e-12)


class TestCepstrumJacobian:
    """The Jacobian from ``CepstralObservation.linearize`` at one state vector."""

    def test_zero_frequency_limit(self):
        jac = CepstralObservation(1, 0, 5, 8000.0).linearize(np.array([1e-9, 50.0]))[1]
        assert np.abs(jac[:, 0]).max() < 1e-10

    def test_bandwidth_column_zero_at_quarter_rate(self):
        jac = CepstralObservation(1, 0, 1, 8000.0).linearize(np.array([2000.0, 50.0]))[1]
        assert jac[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_match(self, rng):
        fs = 10000.0
        for _ in range(20):
            x, i, j = random_state(rng, fs=fs)
            model = CepstralObservation(i, j, 15, fs)
            jac = model.linearize(x)[1]
            fd = np.zeros_like(jac)
            for k in range(x.size):
                up, dn = x.copy(), x.copy()
                up[k] += 1e-4
                dn[k] -= 1e-4
                fd[:, k] = (model.value(up) - model.value(dn)) / 2e-4
            assert np.abs(jac - fd).max() / np.abs(jac).max() < 1e-6

    def test_antiformant_columns_negate_formant_columns(self):
        x = np.array([1400.0, 110.0, 1400.0, 110.0])
        jac = CepstralObservation(1, 1, 12, 9000.0).linearize(x)[1]
        # columns: f, b, f', b'
        assert np.allclose(jac[:, 2], -jac[:, 0])
        assert np.allclose(jac[:, 3], -jac[:, 1])


class TestRealCepstrum:
    @pytest.mark.parametrize("length", [140, 1000])
    def test_blocks_equal_frozen(self, length):
        # 300 speech rows out of 400: at length 140 (a 1024-point FFT, 32 rows
        # per block) they cross several block boundaries, and the frozen
        # copy's one 256-row boundary
        rng = np.random.default_rng(length)
        frames = rng.standard_normal((400, length))
        rows = np.sort(rng.choice(400, 300, replace=False))
        for n_coeffs in (15, 40):
            assert np.array_equal(
                _real_cepstra(frames, rows, n_coeffs), frozen_real_cepstra(frames, rows, n_coeffs)
            )

    def test_unit_impulse_flat(self):
        frame = np.zeros(64)
        frame[0] = 1.0
        assert np.abs(real_cepstrum(frame, 10)).max() < 1e-12

    def test_matches_model_cepstrum_for_long_impulse_response(self):
        impulse = np.zeros(4096)
        impulse[0] = 1.0
        h = sps.lfilter([1.0], [1.0, -1.0, 0.5], impulse)
        c = real_cepstrum(h, 5)
        ref = arma_to_cepstrum(ArmaModel([1.0, -0.5], [], 1.0), 5)
        assert np.abs(c - ref).max() < 0.01

    @settings(deadline=None, max_examples=25)
    @given(scale=st.floats(0.1, 100.0), seed=st.integers(0, 2**31))
    def test_gain_invariant(self, scale, seed):
        frame = np.random.default_rng(seed).standard_normal(256)
        c1 = real_cepstrum(frame, 8)
        c2 = real_cepstrum(scale * frame, 8)
        assert np.abs(c1 - c2).max() < 1e-9

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError, match="log spectrum"):
            real_cepstrum(np.zeros(32), 4)

    def test_no_coefficients_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            real_cepstrum(np.ones(32), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        frame = np.random.default_rng(0).standard_normal(32)
        frame[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            real_cepstrum(frame, 4)


@pytest.mark.parametrize("i,j", [(3, 0), (2, 1), (0, 1), (4, 3)])
class TestStateColumns:
    """Every module places the state vector's blocks by ``state_columns``."""

    def test_blocks_follow_the_paper_order(self, i, j):
        f, b, af, ab = state_columns(i, j)
        assert [c.stop - c.start for c in (f, b, af, ab)] == [i, i, j, j]
        assert np.array_equal(np.r_[f, b, af, ab], np.arange(2 * (i + j)))

    def test_observation_columns_and_bounds(self, i, j):
        f, b, af, ab = state_columns(i, j)
        model = CepstralObservation(i, j, 15, 10000.0)
        assert np.array_equal(model._freq_cols, np.r_[f, af])
        assert np.array_equal(model._bw_cols, np.r_[b, ab])
        lo, hi = model.state_bounds()
        for cols in (f, af):
            assert np.all(lo[cols] == 50.0) and np.all(hi[cols] == 4950.0)
        for cols in (b, ab):
            assert np.all(lo[cols] == 1.0) and np.all(hi[cols] == np.inf)

    def test_default_params(self, i, j):
        f, b, af, ab = state_columns(i, j)
        params = default_params(i, j, 10000.0, 15, freq_process_std=300.0, bw_process_std=50.0)
        q = np.diag(params.Q)
        assert np.all(q[f] == 300.0**2) and np.all(q[af] == 300.0**2)
        assert np.all(q[b] == 50.0**2) and np.all(q[ab] == 50.0**2)
        assert np.array_equal(params.mu0[f], 500.0 + 1000.0 * np.arange(i))
        assert np.array_equal(params.mu0[b], 80.0 + 40.0 * np.arange(i))
        assert np.array_equal(params.mu0[af], 1000.0 + 1000.0 * np.arange(j))
        assert np.all(params.mu0[ab] == 80.0)

    def test_initial_overrides(self, i, j):
        overrides = [[100.0 + k for k in range(n)] for n in (i, i, j, j)]
        overrides = [[v + 1000.0 * block for v in vals] for block, vals in enumerate(overrides)]
        config = RunConfig(
            n_formants=i,
            n_antiformants=j,
            ma_order=2 * j,
            initial_formant_freqs=overrides[0],
            initial_formant_bws=overrides[1],
            initial_antiformant_freqs=overrides[2],
            initial_antiformant_bws=overrides[3],
        )
        mu0 = make_tracker_params(config, 0.01).mu0
        for cols, values in zip(state_columns(i, j), overrides):
            assert mu0[cols].tolist() == values

    def test_result_blocks_header_and_csv(self, i, j, tmp_path):
        dim = 2 * (i + j)
        rng = np.random.default_rng(i + 10 * j)
        means = rng.integers(100, 4000, (6, dim)) / 8.0  # exact in six decimal places
        covs = np.zeros((6, dim, dim))
        covs[:, np.arange(dim), np.arange(dim)] = rng.integers(1, 900, (6, dim)) / 8.0
        activation = TrackActivation.all_active(6, i, j)
        result = _make_result(means, covs, np.ones(6, bool), activation, 15, 10000.0, 0.01)
        assert (result.n_formants, result.n_antiformants) == (i, j)
        props = ("formant_freqs", "formant_bws", "antiformant_freqs", "antiformant_bws")
        prefixes = ("f", "b", "af", "ab")
        header = _header(i, j)
        assert header[0] == "time_s" and header[-1] == "speech"
        for cols, prop, prefix in zip(state_columns(i, j), props, prefixes):
            assert np.array_equal(getattr(result, prop), means[:, cols])
            names = [f"{prefix}{k + 1}" for k in range(cols.stop - cols.start)]
            assert header[1:][cols] == names
            assert header[1 + dim :][cols] == [f"v{name}" for name in names]

        write_tracks(result, tmp_path / "t.csv")
        back = read_tracks(tmp_path / "t.csv")
        assert (back.n_formants, back.n_antiformants) == (i, j)
        _, _, af, ab = state_columns(i, j)
        assert np.array_equal(back.antiformant_freqs, result.antiformant_freqs)
        assert np.array_equal(back.antiformant_bws, result.antiformant_bws)
        assert np.array_equal(back.variances[:, af], result.variances[:, af])
        assert np.array_equal(back.variances[:, ab], result.variances[:, ab])

    def test_tracked_result_counts(self, i, j):
        params = default_params(i, j, 10000.0, 15)
        model = CepstralObservation(i, j, 15, 10000.0)
        result = ekf_filter(model.value(np.tile(params.mu0, (4, 1))), params)
        assert (result.n_formants, result.n_antiformants) == (i, j)
        assert result.formant_active.shape == (4, i)
        assert result.antiformant_active.shape == (4, j)


@pytest.mark.parametrize("n_coeffs", [0, -1])
def test_input_checks(n_coeffs):
    with pytest.raises(ValueError, match="^need at least one coefficient"):
        arma_cepstra(np.array([[0.5]]), np.zeros((1, 0)), n_coeffs)
