import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from karma.arma import (
    CERT_MARGIN,
    ArmaModel,
    _lagged,
    _stabilize_ma,
    certify_inside,
    enforce_minimum_phase,
    estimate_ar,
    estimate_arma,
    fit_ar_frames,
)

from conftest import random_minimum_phase_model


def polynomial_with_roots(rng, radii):
    """Real monic polynomial (powers of z^-1) with a conjugate root pair at
    each radius, at well-separated angles so np.roots stays accurate."""
    angles = rng.permutation(np.linspace(0.15, np.pi - 0.15, 8))[: len(radii)]
    roots = [r * np.exp(s * 1j * a) for r, a in zip(radii, angles) for s in (1, -1)]
    return np.real(np.poly(roots))


def root_radius(poly):
    return np.abs(np.roots(poly)).max(initial=0.0)


class TestEstimateAr:
    def test_white_noise_near_zero(self):
        x = np.random.default_rng(0).standard_normal(10000)
        m = estimate_ar(x, 2)
        assert np.all(np.abs(m.ar) < 0.05)

    def test_ar2_recovery(self):
        u = np.random.default_rng(1).standard_normal(50000)
        x = sps.lfilter([1.0], [1.0, -1.0, 0.5], u)
        m = estimate_ar(x, 2)
        assert np.abs(m.ar - [1.0, -0.5]).max() < 0.02

    def test_zero_frame_flagged(self):
        m = estimate_ar(np.zeros(100), 4)
        assert np.all(m.ar == 0.0)
        assert m.noise_variance == 0.0
        assert not m.converged

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            estimate_ar(np.ones(4), 4)

    def test_always_minimum_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(20, 200))
            p = int(rng.integers(1, min(12, n - 1)))
            m = estimate_ar(rng.standard_normal(n), p)
            assert m.is_minimum_phase()

    def test_noise_variance_nonincreasing_in_order(self):
        rng = np.random.default_rng(3)
        x = sps.lfilter([1.0], [1.0, -0.9, 0.3], rng.standard_normal(4000))
        variances = [estimate_ar(x, p).noise_variance for p in range(1, 10)]
        assert np.all(np.diff(variances) <= 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 16), n_rows=st.integers(1, 8))
    def test_batch_rows_match_single_frame_fits(self, seed, p, n_rows):
        rng = np.random.default_rng(seed)
        frames = np.empty((n_rows, 160))
        for t in range(n_rows):
            model = random_minimum_phase_model(rng, int(rng.integers(1, 9)), 0, max_radius=0.999)
            frames[t] = sps.lfilter([1.0], model.ar_polynomial, rng.standard_normal(160))
        frames[rng.random(n_rows) < 0.2] = 0.0
        a, err, k_max = fit_ar_frames(frames, p)
        for t, frame in enumerate(frames):
            m = estimate_ar(frame, p)
            assert np.allclose(a[t], m.ar, rtol=1e-12, atol=1e-13)
            assert err[t] == pytest.approx(m.noise_variance, rel=1e-12, abs=1e-300)
            if not np.any(frame):
                assert np.all(a[t] == 0.0) and err[t] == 0.0
            if k_max[t] < 1.0 - CERT_MARGIN:
                assert root_radius(m.ar_polynomial) < 1.0


class TestStepDownCertificate:
    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radius=st.sampled_from([0.99, 1.0]),
        n_pairs=st.integers(1, 6),
        offsets=st.lists(st.sampled_from([-1e-7, 1e-7, -0.05, -0.3]), min_size=6, max_size=6),
    )
    def test_never_certifies_a_root_on_or_outside(self, seed, radius, n_pairs, offsets):
        rng = np.random.default_rng(seed)
        poly = polynomial_with_roots(rng, [radius + d for d in offsets[:n_pairs]])
        if certify_inside(poly, radius):
            assert root_radius(poly) < radius

    def test_certifies_roots_well_inside(self, rng):
        for _ in range(200):
            radius = float(rng.choice([0.99, 1.0]))
            radii = rng.uniform(0.1, 0.98 * radius, int(rng.integers(1, 7)))
            assert certify_inside(polynomial_with_roots(rng, radii), radius)

    def test_inconclusive_near_the_circle(self, rng):
        for radius in (0.99, 1.0):
            near = polynomial_with_roots(rng, [0.5, radius - 1e-9])
            assert not certify_inside(near, radius)
            assert not certify_inside(polynomial_with_roots(rng, [0.5, radius + 1e-7]), radius)

    def test_is_minimum_phase_agrees_with_roots(self, rng):
        for _ in range(300):
            p, q = int(rng.integers(0, 13)), int(rng.integers(0, 9))
            m = random_minimum_phase_model(rng, p, q, max_radius=0.999)
            if rng.random() < 0.3 and p:
                m = ArmaModel(-np.real(np.poly(m.poles() * 1.05))[1:], m.ma, 1.0)
            for tol in (0.0, 0.01):
                radii = [np.abs(m.poles()).max(initial=0.0), np.abs(m.zeros()).max(initial=0.0)]
                if abs(max(radii) - (1.0 - tol)) > 1e-9:
                    assert m.is_minimum_phase(tol) == (max(radii) < 1.0 - tol)

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clip=st.sampled_from([0.9, 0.99]),
        offsets=st.lists(st.sampled_from([-1e-7, 1e-7, -0.1, 0.02, 0.5]), min_size=1, max_size=4),
    )
    def test_stabilized_ma_within_clip_radius(self, seed, clip, offsets):
        rng = np.random.default_rng(seed)
        b = polynomial_with_roots(rng, [clip + d for d in offsets])[1:]
        out = _stabilize_ma(b, clip)
        assert root_radius(np.concatenate(([1.0], out))) <= clip * (1.0 + 1e-9)

    def test_stabilize_ma_returns_certified_input_unchanged(self, rng):
        b = polynomial_with_roots(rng, [0.5, 0.8])[1:]
        assert np.array_equal(_stabilize_ma(b, 0.99), b)


class TestEstimateArma:
    def test_q_zero_matches_ar(self):
        x = np.random.default_rng(4).standard_normal(2000)
        m1 = estimate_arma(x, 3, 0)
        m2 = estimate_ar(x, 3)
        assert np.abs(m1.ar - m2.ar).max() < 1e-6

    def test_arma22_spectrum_match(self):
        a_true = np.array([0.8, -0.4])
        b_true = np.array([0.5, 0.2])
        u = np.random.default_rng(5).standard_normal(100000)
        x = sps.lfilter(np.r_[1.0, b_true], np.r_[1.0, -a_true], u)
        m = estimate_arma(x, 2, 2)
        truth = ArmaModel(a_true, b_true, 1.0)
        dev = np.abs(m.log_magnitude(512) - truth.log_magnitude(512))
        assert dev.max() < 0.1

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(6)
        x = sps.lfilter([1.0, 0.4], [1.0, -0.7, 0.2], rng.standard_normal(3000))
        _, info = estimate_arma(x, 2, 1, full_output=True)
        obj = np.asarray(info["objective"])
        assert obj.size >= 1
        assert np.all(np.diff(obj) <= 0.0)

    def test_zero_frame(self):
        m = estimate_arma(np.zeros(200), 2, 2)
        assert np.all(m.ar == 0.0) and np.all(m.ma == 0.0)
        assert not m.converged

    def test_result_minimum_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = sps.lfilter([1.0, 0.3, 0.1], [1.0, -1.2, 0.5], rng.standard_normal(1500))
            m = estimate_arma(x, 4, 2)
            assert m.is_minimum_phase()

    def test_nasal_frame_has_spectral_valley(self):
        """An ARMA(16,4) fit of a synthesized nasal frame shows the zero."""
        from karma.cepstrum import ResonanceState
        from karma.synthesis import FramePlan, TrajectorySpec, synthesize
        from karma.frontend import window_frames, preemphasize

        fs = 10000.0
        state = ResonanceState([257.0, 1891.0], [32.0, 100.0], [1223.0], [52.0], fs)
        plans = [FramePlan(state=state, source="rosenberg", f0_hz=110.0) for _ in range(9)]
        wave, _ = synthesize(TrajectorySpec(plans, 100.0, 0.5, fs, seed=2))
        frames = window_frames(wave, 100.0, 0.5, "hamming")
        emph = preemphasize(frames.frames, 0.7)
        m = estimate_arma(emph[4], 16, 4)
        w, h = sps.freqz(m.ma_polynomial, m.ar_polynomial, worN=4096, fs=fs)
        mag = 20 * np.log10(np.abs(h) + 1e-12)
        valleys, _ = sps.find_peaks(-mag)
        valley_freqs = w[valleys]
        assert np.abs(valley_freqs - 1223.0).min() < 75.0


class TestLaggedMatrix:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 3), (5, 0), (6, 4), (200, 20)])
    def test_matches_column_loop(self, n, k):
        s = np.random.default_rng(n + k).standard_normal(n)
        expected = np.zeros((n, k))
        for i in range(1, k + 1):
            expected[i:, i - 1] = s[: max(n - i, 0)]
        assert np.array_equal(_lagged(s, k), expected)


class TestEnforceMinimumPhase:
    def test_already_minimum_phase_unchanged(self, rng):
        m = random_minimum_phase_model(rng, 6, 2)
        out = enforce_minimum_phase(m)
        assert np.abs(out.ar - m.ar).max() < 1e-12
        assert np.abs(out.ma - m.ma).max() < 1e-12

    def test_single_pole_reflection(self):
        # pole at z = 2: denominator 1 - 2 z^-1
        m = ArmaModel([2.0], [], 1.0)
        out = enforce_minimum_phase(m)
        assert out.poles()[0] == pytest.approx(0.5)

    def test_spectrum_preserved_up_to_gain(self, rng):
        # degree-6 polynomial with 2 roots pushed outside
        inside = random_minimum_phase_model(rng, 6, 0)
        roots = inside.poles()
        roots[0] = roots[0] / np.abs(roots[0]) ** 2 * 1.5
        roots[1] = np.conj(roots[0])
        poly = np.real(np.poly(roots))
        m = ArmaModel(-poly[1:], [], 1.0)
        out = enforce_minimum_phase(m)
        assert np.abs(out.poles()).max() < 1.0
        w = np.linspace(0, np.pi, 257)
        z = np.exp(1j * w)
        mag_in = np.abs(np.polyval(m.ar_polynomial[::-1], 1 / z))
        mag_out = np.abs(np.polyval(out.ar_polynomial[::-1], 1 / z))
        ratio = mag_in / mag_out
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9
