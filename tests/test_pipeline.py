import dataclasses
import importlib
import importlib.util
import json
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import karma.arma
import karma.frontend
import karma.pipeline
from karma.arma import ArmaModel, estimate_ar, fit_ar_frames, fit_arma_frames
from karma.cepstrum import _real_cepstra, arma_to_cepstrum
from karma.pipeline import RunConfig, build_observations, make_tracker_params, track_waveform
from karma.evaluation import rmse
from karma.frontend import (
    LabelInterval,
    Waveform,
    _kaiser_lowpass,
    activity_from_labels,
    frame_length_and_hop,
)
from karma.synthesis import random_trajectory, synthesize
from karma.tracker import TrackActivation, ekf_filter, eks_smooth

from conftest import (
    NASAL_SKIP_FRAMES,
    frozen_detect_activity,
    frozen_polyphase,
    frozen_preemphasize,
    frozen_window_frames,
    random_minimum_phase_model,
    root_sum_cepstrum,
    track_nasal,
)


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

    @pytest.mark.parametrize("field, value", [("n_formants", 7), ("n_cepstra", 10)])
    def test_real_cepstrum_needs_no_lpc_order(self, field, value):
        # nor does lpc_order, which the default 12 would otherwise make binding
        RunConfig(observation_source="real_cepstrum", **{field: value}).validate()
        with pytest.raises(ValueError, match="lpc_order"):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize("source", ["arma_cepstrum", "real_cepstrum"])
    @pytest.mark.parametrize("n_cepstra", [0, -1])
    def test_no_cepstra_rejected(self, source, n_cepstra):
        with pytest.raises(ValueError, match="n_cepstra must be positive"):
            RunConfig(observation_source=source, n_cepstra=n_cepstra).validate()

    def test_lpc_order_bounds_only_the_model_route(self):
        RunConfig(observation_source="real_cepstrum", lpc_order=0).validate()
        with pytest.raises(ValueError, match="lpc_order must be positive"):
            RunConfig(lpc_order=0, n_formants=0, n_antiformants=1, ma_order=2).validate()

    @pytest.mark.parametrize("p, q", [(2, 0), (12, 0), (4, 2), (6, 4)])
    def test_frame_limits_are_the_fits_own(self, p, q):
        """validate accepts a frame length exactly when ``fit_arma_frames`` fits it."""
        rng = np.random.default_rng(p + q)
        for n in range(1, p + q + 4):
            config = RunConfig(
                target_sample_rate_hz=1000.0, frame_ms=float(n), lpc_order=p, ma_order=q, n_cepstra=max(p, q), n_formants=1
            )
            try:
                fit_arma_frames(rng.standard_normal((1, n)), p, q)
            except ValueError:
                with pytest.raises(ValueError, match="too short"):
                    config.validate()
            else:
                config.validate()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 140])
    def test_real_cepstrum_count_bounded_by_the_fft(self, n):
        """n_cepstra may reach the number of columns ``_real_cepstra`` returns."""
        limit = _real_cepstra(np.ones((1, n)), [0], 10**6).shape[1]
        fields = dict(observation_source="real_cepstrum", target_sample_rate_hz=1000.0, frame_ms=float(n))
        RunConfig(**fields, n_cepstra=limit).validate()
        with pytest.raises(ValueError, match="n_cepstra must be at most"):
            RunConfig(**fields, n_cepstra=limit + 1).validate()

    @pytest.mark.parametrize("n", [2, 7, 8, 33, 140])  # a one-sample frame has a flat spectrum
    def test_real_cepstrum_coefficients_distinct_from_their_mirrors(self, n):
        """Coefficient nfft - k of the real cepstrum repeats coefficient k; no
        allowed coefficient is the mirror of another one."""
        frame = np.random.default_rng(n).standard_normal(n)
        allowed = _real_cepstra(frame[None, :], [0], 10**6)[0]
        nfft = 1 << max(int(np.ceil(np.log2(4 * n))), 3)
        every = loop_real_cepstrum(frame, nfft - 1)  # C_1 .. C_{nfft-1}
        assert np.array_equal(allowed, every[: allowed.size])
        k = np.arange(1, allowed.size + 1)
        assert np.allclose(every[nfft - k - 1], every[k - 1], rtol=0, atol=1e-12)  # the mirrors
        assert np.all((nfft - k > allowed.size) | (nfft - k == k))  # none of them allowed but itself
        gaps = np.abs(allowed[:, None] - allowed[None, :]) + np.eye(allowed.size)
        assert gaps.min() > 1e-9

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
            expected[t] = arma_to_cepstrum(ArmaModel(coeffs, np.zeros(0)), config.n_cepstra)
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

    @pytest.mark.parametrize(
        "config",
        [RunConfig(), RunConfig(lpc_order=4, ma_order=2, n_formants=2, n_antiformants=1)],
        ids=["ar", "arma"],
    )
    def test_fit_blocks_leave_the_cepstra_unchanged(self, monkeypatch, config):
        frames = resonant_frames(13, 30, 200)
        speech = np.random.default_rng(13).random(30) < 0.8
        whole = build_observations(frames, config, speech)
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", 3 * frames[:1].nbytes)
        assert np.array_equal(build_observations(frames, config, speech), whole)

    def test_ar_frame_of_p_plus_one_samples_fits(self):
        config = RunConfig()
        frames = resonant_frames(12, 4, config.lpc_order + 1)[1:]  # row 0 is silent
        obs = build_observations(frames, config, np.ones(3, dtype=bool))
        for t, frame in enumerate(frames):
            expected = arma_to_cepstrum(estimate_ar(frame, config.lpc_order), config.n_cepstra)
            assert np.array_equal(obs[t], expected)

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
        res = track_waveform(wave, RunConfig())
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

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((-1, 3, 0), "^activation length does not match"),
            ((0, 2, 1), "^activation has 2 formant and 1 antiformant columns; params track 3 formants"),
        ],
        ids=["length", "widths"],
    )
    def test_activation_checked_before_the_front_end(self, monkeypatch, shape, message):
        spec = random_trajectory(3, 0.5, seed=5, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        n_frames = track_waveform(wave, RunConfig()).n_frames
        extra, n_f, n_a = shape

        def no_front_end(*args, **kwargs):
            raise AssertionError("the front end ran before the activation was checked")

        monkeypatch.setattr(karma.pipeline, "build_observations", no_front_end)
        with pytest.raises(ValueError, match=message):
            track_waveform(wave, RunConfig(), activation=TrackActivation.all_active(n_frames + extra, n_f, n_a))

    def test_known_bandwidths_smooth_without_regularizing(self):
        spec = random_trajectory(3, 2.0, seed=6, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        config = RunConfig(bw_process_std=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = track_waveform(wave, config)
        params = make_tracker_params(config, res.hop_s)
        bws = slice(res.n_formants, 2 * res.n_formants)
        assert np.all(res.formant_bws == params.mu0[bws])
        assert np.all(res.variances[:, bws] == 0.0)


def flag_runs(rng, n_frames, n_tracks):
    """Per-track activity, (n_frames, n_tracks): on and off in turn, in runs of 1-40 frames."""
    flags = np.empty((n_frames, n_tracks), dtype=bool)
    for k in range(n_tracks):
        t, on = 0, bool(rng.random() < 0.5)
        while t < n_frames:
            run = int(rng.integers(1, 41))
            flags[t : t + run, k] = on
            t, on = t + run, not on
    return flags


@pytest.fixture(scope="module")
def long_flipping_utterance():
    """A 20 s Rosenberg utterance with a 2 s silent stretch, and formant
    activity that flips in runs of 1-40 frames."""
    spec = random_trajectory(3, 20.0, seed=31, sample_rate_hz=16000.0, source="rosenberg")
    sources = spec.sources.copy()
    sources[800:1000] = "silence"
    wave, ref = synthesize(dataclasses.replace(spec, sources=sources))
    formants = flag_runs(np.random.default_rng(31), ref.n_frames, 3)
    return wave, TrackActivation(formants, np.ones((ref.n_frames, 0), bool))


@pytest.mark.parametrize("mode", ["filter", "smooth"])
def test_long_run_covariances_stay_symmetric_psd(long_flipping_utterance, mode):
    """Every posterior covariance is exactly symmetric, with a smallest
    eigenvalue of at least -1e-9 times its largest entry, through 1999
    frames of activation changes and a silent stretch."""
    wave, activation = long_flipping_utterance
    res = track_waveform(wave, RunConfig(mode=mode), activation=activation)
    assert res.n_frames == len(activation) == 1999
    assert not res.speech[810:990].any()
    cov = res.covariances
    assert np.array_equal(cov, cov.swapaxes(1, 2))
    assert np.all(np.linalg.eigvalsh(cov)[:, 0] >= -1e-9 * np.abs(cov).max(axis=(1, 2)))


def filter_prefix_runs(source, observation_source):
    """Filter-mode runs on a 4 s, 7 kHz utterance and on its first half, labelled all speech.

    Labels fix the activity mask, so only the tracker could look ahead.  The
    utterance has three formants, as many as the default config tracks: a
    fourth would reach 3770 Hz on this seed, above the 3.5 kHz Nyquist rate.
    """
    spec = random_trajectory(3, 4.0, seed=5, sample_rate_hz=7000.0, source=source)
    wave, _ = synthesize(spec)
    half = Waveform(wave.samples[: wave.samples.size // 2], wave.sample_rate_hz)
    config = RunConfig(mode="filter", observation_source=observation_source)
    return track_waveform(wave, config, labels=[]), track_waveform(half, config, labels=[])


def frozen_track_waveform(w, config, labels=None):
    """``track_waveform`` by the whole-array route of the frozen front-end
    copies: the resampled signal, one (T, L) frame matrix, the activity mask
    and the observations, each made at full size."""
    fs = config.target_sample_rate_hz
    ratio = Fraction(fs / w.sample_rate_hz).limit_denominator(1000)
    up, down = ratio.numerator, ratio.denominator
    x = w.samples
    if up != down:
        cutoff = 0.5 * min(w.sample_rate_hz, fs)
        x = frozen_polyphase(x, _kaiser_lowpass(cutoff, 0.1 * cutoff, w.sample_rate_hz * up), up, down)
    n_samples = round(w.samples.size * fs / w.sample_rate_hz)
    x = np.pad(x[:n_samples], (0, max(0, n_samples - x.size)))
    frames = frozen_window_frames(x, fs, config.frame_ms, config.overlap, config.window)
    frame_length, hop = frame_length_and_hop(config.frame_ms, config.overlap, fs)
    if labels is None:
        mask = frozen_detect_activity(frames, config.energy_threshold_db)
    else:
        mask = activity_from_labels(labels, n_samples, frame_length, hop, len(frames), fs / w.sample_rate_hz)
    obs = build_observations(frozen_preemphasize(frames, config.gamma), config, mask)
    run = eks_smooth if config.mode == "smooth" else ekf_filter
    return run(obs, make_tracker_params(config, hop / fs), mask)


def paused_noise(n, sample_rate_hz, seed=0):
    """``n`` samples of noise with a silent stretch and a quiet one (60 dB
    down), and labels that call the first tenth and the silent stretch pauses."""
    x = np.random.default_rng(seed).standard_normal(n)
    x[2 * n // 5 : n // 2] = 0.0
    x[3 * n // 5 : 7 * n // 10] *= 1e-3
    labels = [
        LabelInterval(0, n // 10, "pau"),
        LabelInterval(n // 10, 2 * n // 5, "aa"),
        LabelInterval(2 * n // 5, n // 2, "h#"),
        LabelInterval(n // 2, n, "iy"),
    ]
    return Waveform(x, sample_rate_hz), labels


class TestStreamedFrontEnd:
    """``track_waveform`` streams the front end (two passes over blocks of
    frames, no resampled signal, no frame matrix) and tracks with the same
    bits as the whole-array route of the frozen copies, also when a small
    block budget puts chunk and block edges inside frames."""

    RATES = [(16000.0, 7000.0), (44100.0, 7000.0), (8000.0, 7000.0), (10000.0, 10000.0)]
    # hop L/2; no overlap; a hop of 0.7 L, which does not divide L (140 or 200)
    FRAMINGS = [(20.0, 0.5), (20.0, 0.0), (20.0, 0.3)]

    @staticmethod
    def assert_same_track(streamed, frozen):
        assert np.array_equal(streamed.speech, frozen.speech)
        assert np.array_equal(streamed.means, frozen.means)
        assert np.array_equal(streamed.covariances, frozen.covariances)

    @pytest.mark.parametrize("budget", [1 << 12, 1 << 16])
    @pytest.mark.parametrize("labelled", [False, True], ids=["detected", "labelled"])
    @pytest.mark.parametrize("frame_ms,overlap", FRAMINGS)
    @pytest.mark.parametrize("source_hz,target_hz", RATES)
    def test_equals_whole_array_route(self, monkeypatch, source_hz, target_hz, frame_ms, overlap, labelled, budget):
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", budget)
        w, labels = paused_noise(int(0.4 * source_hz) + 37, source_hz)
        labels = labels if labelled else None
        config = RunConfig(target_sample_rate_hz=target_hz, frame_ms=frame_ms, overlap=overlap, mode="filter")
        streamed = track_waveform(w, config, labels=labels)
        self.assert_same_track(streamed, frozen_track_waveform(w, config, labels))
        assert labelled or not streamed.speech.all()  # the pauses are detected

    @pytest.mark.parametrize("labelled", [False, True], ids=["detected", "labelled"])
    @pytest.mark.parametrize(
        "config",
        [RunConfig(), RunConfig(observation_source="real_cepstrum", mode="filter")],
        ids=["smooth-ar", "filter-realcep"],
    )
    def test_routes_equal_whole_array_route(self, monkeypatch, config, labelled):
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", 1 << 13)
        w, labels = paused_noise(8037, 16000.0, seed=1)
        labels = labels if labelled else None
        self.assert_same_track(track_waveform(w, config, labels=labels), frozen_track_waveform(w, config, labels))

    def test_default_budget_tail_frame(self):
        # 0.4 s + 37 samples at 16 kHz: 2816 samples at 7 kHz, 39 full frames and a tail
        w, _ = paused_noise(6437, 16000.0)
        result = track_waveform(w, RunConfig())
        assert result.n_frames == 40
        self.assert_same_track(result, frozen_track_waveform(w, RunConfig()))

    @pytest.mark.parametrize("labelled", [False, True], ids=["detected", "labelled"])
    @pytest.mark.parametrize("signal", ["one-frame", "all-zero"])
    def test_edge_inputs(self, monkeypatch, signal, labelled):
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", 1 << 12)
        if signal == "one-frame":  # 320 samples at 16 kHz are 140 at 7 kHz, one 20 ms frame
            w = Waveform(np.random.default_rng(2).standard_normal(320), 16000.0)
        else:
            w = Waveform(np.zeros(8000), 16000.0)
        labels = [LabelInterval(0, w.samples.size, "aa")] if labelled else None
        result = track_waveform(w, RunConfig(), labels=labels)
        assert result.n_frames == (1 if signal == "one-frame" else 49)
        self.assert_same_track(result, frozen_track_waveform(w, RunConfig(), labels))
        assert result.speech.all() == (signal == "one-frame" or labelled)

    def test_input_shorter_than_one_frame(self):
        w = Waveform(np.ones(318), 16000.0)  # 139 samples at 7 kHz, one short of a frame
        with pytest.raises(ValueError, match="input too short"):
            track_waveform(w, RunConfig())


def traced_peak(seconds, config):
    """tracemalloc peak of one ``track_waveform`` call (after a warm-up call, so
    first-call caches stay out of it) on a ``seconds`` utterance, and its result."""
    wave, _ = synthesize(random_trajectory(4, seconds, seed=5, sample_rate_hz=16000.0))
    track_waveform(wave, config)
    tracemalloc.start()
    try:
        result = track_waveform(wave, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


class TestMemory:
    """The run holds the (T, N) observations and the tracker's result, plus a
    few front-end blocks whatever the length: neither the resampled signal nor
    a (T, L) frame matrix."""

    # the framer's block, the resampler's chunk and one block's temporaries
    BLOCKS = 2.0
    # peak growth per added frame over 8 (N + d + d^2 + 1) bytes: the
    # observations, the mean, the covariance and the mask or RMS
    SLOPE_MULTIPLE = 1.2
    FILTER_REALCEP = RunConfig(mode="filter", observation_source="real_cepstrum")

    @pytest.mark.parametrize(
        "seconds,config",
        [(20.0, FILTER_REALCEP), (10.0, RunConfig(mode="smooth"))],
        ids=["filter-realcep-20s", "smooth-ar-10s"],
    )
    def test_peak_within_result_and_blocks(self, seconds, config):
        peak, result = traced_peak(seconds, config)
        held = 8 * result.n_frames * config.n_cepstra  # the observations
        held += result.means.nbytes + result.covariances.nbytes + result.speech.nbytes
        assert peak < held + self.BLOCKS * karma.frontend._BLOCK_BYTES, (peak, held)

    def test_peak_grows_by_the_held_rows_only(self):
        config = self.FILTER_REALCEP
        (short, head), (long, full) = traced_peak(20.0, config), traced_peak(40.0, config)
        d = full.means.shape[1]
        per_frame = 8 * (config.n_cepstra + d + d * d + 1)
        slope = (long - short) / (full.n_frames - head.n_frames)
        assert slope <= self.SLOPE_MULTIPLE * per_frame, (slope, per_frame)


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
        res, ref = track_nasal(seed)
        scored = ref.speech & (np.arange(ref.n_frames) >= NASAL_SKIP_FRAMES)
        report = rmse(res, ref, mask=scored, formant_count=2, offset=0)
        assert report.overall < 100.0


def load_bench_tracing():
    """Import ``bench/tracing.py`` under a name no other module uses."""
    name = "_loaded_bench_tracing"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("probe", load_bench_tracing().PROBES, ids=lambda p: p.name)
def test_bench_probe_resolves(probe):
    module = importlib.import_module(probe.module)
    assert callable(getattr(module, probe.attr, None))


# each config differs from the default in one field, which only its own check rejects
RUN_CONFIG_CHECKS = {
    "overlap-one": ({"overlap": 1.0}, r"^overlap must be in \[0, 1\)"),
    "overlap-negative": ({"overlap": -0.25}, r"^overlap must be in \[0, 1\)"),
    "unknown-observation-source": ({"observation_source": "lpc"}, "^observation_source must be one of"),
    "zero-target-rate": ({"target_sample_rate_hz": 0.0}, "^target sample rate must be positive"),
    "negative-target-rate": ({"target_sample_rate_hz": -7000.0}, "^target sample rate must be positive"),
    "gamma-above-one": ({"gamma": 1.5}, r"^\|gamma\| must be <= 1"),
    "gamma-below-minus-one": ({"gamma": -1.01}, r"^\|gamma\| must be <= 1"),
    "freq-std-square-overflows": ({"freq_process_std": 1e200}, "^process stds must be non-negative with a finite square"),
    "bw-std-square-overflows": ({"bw_process_std": 1e155}, "^process stds must be non-negative with a finite square"),
}


@pytest.mark.parametrize("case", list(RUN_CONFIG_CHECKS))
def test_input_checks(case):
    fields, message = RUN_CONFIG_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        RunConfig(**fields).validate()
