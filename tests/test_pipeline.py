import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import karma.arma
from karma.arma import ArmaModel, estimate_ar, fit_ar_frames
from karma.cepstrum import arma_to_cepstrum
from karma.pipeline import RunConfig, build_observations, make_tracker_params, track_waveform
from karma.evaluation import rmse
from karma.frontend import Waveform
from karma.synthesis import nasal_utterance_spec, random_trajectory, synthesize
from karma.tracker import TrackActivation

from conftest import random_minimum_phase_model, root_sum_cepstrum
from test_acceptance import NASAL_CONFIG


def loop_real_cepstrum(frame, n_coeffs):
    """Single-frame reference for the real-cepstrum route."""
    nfft = 1 << max(int(np.ceil(np.log2(4 * frame.size))), 3)
    spec = np.abs(np.fft.rfft(frame, nfft))
    ceps = np.fft.irfft(np.log(np.maximum(spec, 1e-12 * spec.max())), nfft)
    return 2.0 * ceps[1 : n_coeffs + 1]


def resonant_frames(seed, n_frames, length, silent_every=4):
    """Noise through random all-pole resonators, every ``silent_every``-th row zero."""
    rng = np.random.default_rng(seed)
    frames = np.empty((n_frames, length))
    for t in range(n_frames):
        model = random_minimum_phase_model(rng, 2 * int(rng.integers(1, 5)), 0, max_radius=0.995)
        excitation = rng.standard_normal(length) * 10.0 ** rng.uniform(-4, 2)
        frames[t] = sps.lfilter([1.0], model.ar_polynomial, excitation) * np.hamming(length)
    frames[::silent_every] = 0.0
    return frames


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_cepstra_order_invariant(self):
        with pytest.raises(ValueError, match="n_cepstra"):
            RunConfig(lpc_order=16, n_cepstra=12).validate()

    def test_pole_count_invariant(self):
        with pytest.raises(ValueError, match="lpc_order"):
            RunConfig(n_formants=4, lpc_order=6).validate()

    def test_zero_count_invariant(self):
        with pytest.raises(ValueError, match="ma_order"):
            RunConfig(n_antiformants=2, ma_order=2).validate()

    def test_real_cepstrum_needs_no_ma_order(self):
        # the real-cepstrum route fits no MA part, so ma_order does not bound it
        RunConfig(n_antiformants=1, observation_source="real_cepstrum").validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("freq_process_std", float("inf")),
            ("bw_process_std", float("inf")),
            ("energy_threshold_db", float("nan")),
            ("gamma", float("nan")),
            ("target_sample_rate_hz", float("inf")),
        ],
    )
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize("counts", [(-1, 0), (3, -1), (-2, 2)])
    def test_negative_track_count_rejected(self, counts):
        i, j = counts
        with pytest.raises(ValueError, match="track counts must be non-negative"):
            RunConfig(n_formants=i, n_antiformants=j).validate()

    def test_no_tracks_rejected(self):
        with pytest.raises(ValueError, match="at least one formant or antiformant"):
            RunConfig(n_formants=0, n_antiformants=0).validate()

    def test_antiformants_only_valid(self):
        RunConfig(n_formants=0, n_antiformants=1, ma_order=2).validate()

    def test_json_roundtrip_lossless(self, tmp_path):
        config = RunConfig(
            target_sample_rate_hz=8000.0,
            lpc_order=16,
            ma_order=4,
            n_cepstra=20,
            n_antiformants=2,
            mode="filter",
            initial_antiformant_freqs=[1000.0, 2000.0],
        )
        path = tmp_path / "cfg.json"
        config.save(path)
        back = RunConfig.load(path)
        assert back == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_json({"frame_msec": 20})

    def test_json_numbers_fit_float_fields(self):
        config = RunConfig.from_json(
            {"overlap": 0, "gamma": 1, "initial_formant_freqs": [500, 1500.0, 2500], "initial_formant_bws": None}
        )
        config.validate()
        assert config.initial_formant_freqs == [500, 1500.0, 2500]

    def test_mu0_overrides(self):
        config = RunConfig(
            n_formants=2,
            lpc_order=6,
            initial_formant_freqs=[400.0, 1800.0],
        )
        params = make_tracker_params(config, hop_s=0.01)
        assert params.mu0[:2].tolist() == [400.0, 1800.0]
        assert params.mu0[2:4].tolist() == [80.0, 120.0]

    def test_bad_override_length(self):
        config = RunConfig(initial_formant_freqs=[500.0])
        with pytest.raises(ValueError, match="wrong length"):
            make_tracker_params(config, hop_s=0.01)


class TestBuildObservations:
    def test_silent_frames_zero_rows(self):
        frames = np.random.default_rng(0).standard_normal((4, 200))
        config = RunConfig()
        speech = np.array([True, False, True, False])
        obs = build_observations(frames, config, speech)
        assert np.all(obs[1] == 0.0) and np.all(obs[3] == 0.0)
        assert np.any(obs[0] != 0.0)

    def test_real_cepstrum_mode(self):
        frames = np.random.default_rng(1).standard_normal((2, 256))
        config = RunConfig(observation_source="real_cepstrum")
        obs = build_observations(frames, config, np.array([True, True]))
        assert obs.shape == (2, config.n_cepstra)
        assert np.all(np.isfinite(obs))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_frames=st.integers(1, 12),
        length=st.integers(40, 300),
        p=st.integers(2, 16),
    )
    def test_batched_ar_cepstra_match_root_oracle(self, seed, n_frames, length, p):
        frames = resonant_frames(seed, n_frames, length)
        speech = np.random.default_rng(seed).random(n_frames) < 0.8
        config = RunConfig(lpc_order=p, n_cepstra=max(p, 15))
        obs = build_observations(frames, config, speech)
        for t in range(n_frames):
            if speech[t] and np.any(frames[t]):
                oracle = root_sum_cepstrum(estimate_ar(frames[t], p), config.n_cepstra)
                assert np.abs(obs[t] - oracle).max() < 1e-10
            else:
                assert np.all(obs[t] == 0.0)

    @pytest.mark.parametrize("share", [1.0, 0.05])
    def test_uncertified_frames_take_the_root_check(self, monkeypatch, share):
        """Rows the certificate refuses are decided by their roots, with the
        same cepstra; the AR fit itself never asks for a certificate."""
        frames = resonant_frames(11, 40, 140)
        speech = np.ones(40, dtype=bool)
        config = RunConfig()
        rows = np.flatnonzero(np.any(frames, axis=1))
        a, _ = fit_ar_frames(frames[rows], config.lpc_order)
        expected = np.zeros((40, config.n_cepstra))
        for t, coeffs in zip(rows, a):
            expected[t] = arma_to_cepstrum(ArmaModel(coeffs, np.zeros(0)), config.n_cepstra).coeffs
        assert np.array_equal(build_observations(frames, config, speech), expected)

        certify_rows, roots_rows, factored = karma.arma._certify_rows, karma.arma._roots_rows, []

        def refusing(polys, radius):
            proved = certify_rows(polys, radius)
            proved[:: round(1.0 / share)] = False
            return proved

        def counted(polys):
            factored.append(len(polys))
            return roots_rows(polys)

        monkeypatch.setattr(karma.arma, "_certify_rows", refusing)
        monkeypatch.setattr(karma.arma, "_roots_rows", counted)
        assert np.array_equal(build_observations(frames, config, speech), expected)
        n_refused = len(range(0, rows.size, round(1.0 / share)))
        assert 0 < n_refused <= rows.size and (n_refused == rows.size) == (share == 1.0)
        assert factored == [n_refused] * 2  # the AR polynomials, then the empty MA ones

    def test_ar_frame_of_p_plus_one_samples_fits(self):
        config = RunConfig()
        frames = resonant_frames(12, 4, config.lpc_order + 1)[1:]  # row 0 is silent
        obs = build_observations(frames, config, np.ones(3, dtype=bool))
        for t, frame in enumerate(frames):
            expected = arma_to_cepstrum(estimate_ar(frame, config.lpc_order), config.n_cepstra)
            assert np.array_equal(obs[t], expected.coeffs)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 600), length=st.integers(16, 300))
    @example(seed=0, n_frames=600, length=140)  # more than two FFT blocks
    def test_batched_real_cepstrum_matches_per_frame(self, seed, n_frames, length):
        frames = resonant_frames(seed, n_frames, length)
        config = RunConfig(observation_source="real_cepstrum")
        obs = build_observations(frames, config, np.ones(n_frames, dtype=bool))
        for t in range(n_frames):
            if np.any(frames[t]):
                expected = loop_real_cepstrum(frames[t], config.n_cepstra)
                assert np.abs(obs[t] - expected).max() < 1e-10
            else:
                assert np.all(obs[t] == 0.0)


class TestTrackWaveform:
    def test_tracks_synthetic_vowel(self):
        spec = random_trajectory(3, 1.0, seed=3, sample_rate_hz=16000.0)
        wave, ref = synthesize(spec)
        res, mask, obs, params = track_waveform(wave, RunConfig(), return_details=True)
        assert res.n_frames == obs.shape[0]
        assert res.n_formants == 3
        err = np.abs(res.formant_freqs[10:] - ref.formant_freqs[10 : res.n_frames])
        assert np.median(err) < 120.0

    def test_smooth_variances_below_filter(self):
        spec = random_trajectory(3, 1.0, seed=4, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        filt = track_waveform(wave, RunConfig(mode="filter"))
        smth = track_waveform(wave, RunConfig(mode="smooth"))
        frac = np.mean(smth.variances <= filt.variances + 1e-12)
        assert frac >= 0.95

    def test_invalid_config_raises(self):
        spec = random_trajectory(3, 0.5, seed=5, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        with pytest.raises(ValueError):
            track_waveform(wave, RunConfig(mode="offline"))

    def test_activation_width_checked(self):
        spec = random_trajectory(3, 0.5, seed=5, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        n_frames = track_waveform(wave, RunConfig()).n_frames
        activation = TrackActivation.all_active(n_frames, 2, 1)
        with pytest.raises(ValueError, match="2 formant and 1 antiformant columns; params track 3 formants"):
            track_waveform(wave, RunConfig(), activation=activation)

    def test_known_bandwidths_smooth_without_regularizing(self):
        spec = random_trajectory(3, 2.0, seed=6, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        config = RunConfig(bw_process_std=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, _, _, params = track_waveform(wave, config, return_details=True)
        bws = slice(res.n_formants, 2 * res.n_formants)
        assert np.all(res.formant_bws == params.mu0[bws])
        assert np.all(res.variances[:, bws] == 0.0)


def filter_prefix_runs(source, observation_source):
    """Filter-mode runs on a 4 s, 7 kHz utterance and on its first half, labelled all speech.

    Labels fix the activity mask, so only the tracker could look ahead.
    """
    spec = random_trajectory(4, 4.0, seed=5, sample_rate_hz=7000.0, source=source)
    wave, _ = synthesize(spec)
    half = Waveform(wave.samples[: wave.samples.size // 2], wave.sample_rate_hz)
    config = RunConfig(mode="filter", observation_source=observation_source)
    return track_waveform(wave, config, labels=[]), track_waveform(half, config, labels=[])


class TestOnePassTracking:
    """One random-walk tracking pass: filter mode is causal and nasal formants stay on track."""

    @pytest.mark.parametrize("observation_source", ["arma_cepstrum", "real_cepstrum"])
    @pytest.mark.parametrize("source", ["white_noise", "rosenberg"])
    def test_filter_mode_causal(self, source, observation_source):
        full, head = filter_prefix_runs(source, observation_source)
        assert head.n_frames == 199
        assert np.array_equal(head.means, full.means[:199])
        assert np.array_equal(head.covariances, full.covariances[:199])

    @pytest.mark.parametrize("seed", [700, 705, 707, 719])
    def test_nasal_formants_within_100_hz(self, seed):
        wave, ref = synthesize(nasal_utterance_spec(seed=seed))
        activation = TrackActivation(ref.formant_active, ref.antiformant_active)
        res = track_waveform(wave, RunConfig(**NASAL_CONFIG), activation=activation)
        scored = ref.speech & (np.arange(ref.n_frames) >= 10)
        report = rmse(res, ref, mask=scored, formant_count=2, offset=0)
        assert report.overall < 100.0
