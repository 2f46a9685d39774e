import dataclasses

import numpy as np
import pytest
from scipy import signal as sps
from scipy.interpolate import PchipInterpolator

from karma.cepstrum import CepstralObservation, arma_to_cepstrum
from karma.synthesis import (
    TrajectorySpec,
    _filter_rows,
    _pchip,
    _present_cascades,
    load_spec,
    nasal_utterance_spec,
    random_trajectory,
    resonator_cascade,
    rosenberg_source,
    save_spec,
    spec_from_json,
    spec_to_json,
    synthesize,
)

from conftest import cascade_model, frozen_resonator_cascade, frozen_synthesize


def constant_spec(formants, n_frames, source, frame_ms, fs, seed=0, f0_hz=None):
    """A spec with the same (frequency, bandwidth) formant pairs on every frame."""
    freqs, bws = np.array(formants, dtype=float).T
    return TrajectorySpec(
        np.tile(freqs, (n_frames, 1)),
        np.tile(bws, (n_frames, 1)),
        np.zeros((n_frames, 0)),
        np.zeros((n_frames, 0)),
        np.full(n_frames, source),
        frame_ms,
        0.5,
        fs,
        seed,
        None if f0_hz is None else np.full(n_frames, f0_hz),
    )


class TestResonatorCascade:
    def test_quarter_rate_section(self):
        fs = 8000.0
        b = 120.0
        poly = resonator_cascade([fs / 4], [b], fs)
        assert poly[0] == 1.0
        assert poly[1] == pytest.approx(0.0, abs=1e-12)
        assert poly[2] == pytest.approx(np.exp(-2 * np.pi * b / fs))

    def test_pole_radius_value(self):
        radius = np.abs(np.roots(resonator_cascade([257.0], [32.0], 10000.0)))[0]
        assert radius == pytest.approx(np.exp(-np.pi * 32.0 / 10000.0), abs=1e-12)
        assert radius == pytest.approx(0.98999, abs=1e-5)

    def test_root_inversion_roundtrip(self, rng):
        """The cascade's roots, one per conjugate pair, give back each
        resonance: frequency from the angle, bandwidth from the radius."""
        fs = 10000.0
        for _ in range(50):
            k = int(rng.integers(1, 4))
            freqs = np.sort(rng.uniform(150, fs / 2 - 150, k))
            bws = rng.uniform(30, 300, k)
            roots = np.roots(resonator_cascade(freqs, bws, fs))
            roots = roots[roots.imag > 1e-12]
            order = np.argsort(np.angle(roots))
            back_f = np.angle(roots[order]) * fs / (2.0 * np.pi)
            back_b = -np.log(np.abs(roots[order])) * fs / np.pi
            assert np.abs(back_f - freqs).max() < 1e-9
            assert np.abs(back_b - bws).max() < 1e-9

    @pytest.mark.parametrize("fs", [8000.0, 10000.0, 16000.0])
    def test_stacked_rows_equal_convolve_loop(self, rng, fs):
        """Rows of 0-6 present sections, bandwidths 1 Hz-10 kHz: each stacked
        row, and each one-row call, is the convolve loop's polynomial."""
        n_rows, n_tracks = 300, 6
        freqs = rng.uniform(1.0, fs / 2 - 1.0, (n_rows, n_tracks))
        bws = np.exp(rng.uniform(0.0, np.log(1e4), (n_rows, n_tracks)))
        counts = rng.integers(0, n_tracks + 1, n_rows)
        present = rng.permuted(np.arange(n_tracks) < counts[:, None], axis=1)
        assert set(counts.tolist()) == set(range(n_tracks + 1))
        stacked = _present_cascades(freqs, bws, present, fs)
        for t in range(n_rows):
            f, b = freqs[t, present[t]], bws[t, present[t]]
            expected = frozen_resonator_cascade(f, b, fs)
            assert np.array_equal(stacked[t, : expected.size], expected)
            assert not stacked[t, expected.size :].any()
            assert np.array_equal(resonator_cascade(f, b, fs), expected)

    def test_cepstral_consistency_with_state_map(self):
        fs = 10000.0
        x = np.array([500.0, 1500.0, 80.0, 120.0, 1100.0, 90.0])
        c1 = CepstralObservation(2, 1, 24, fs).value(x)
        c2 = arma_to_cepstrum(cascade_model(x, 2, 1, fs), 24)
        assert np.abs(c1 - c2).max() < 1e-9


class TestRosenbergSource:
    def test_exact_period(self):
        pulse = rosenberg_source([100.0] * 4, 400, 10000.0)
        period = 100
        # pulse shape repeats exactly every period
        assert np.abs(pulse[:period] - pulse[period : 2 * period]).max() < 1e-12
        assert pulse.max() == pytest.approx(1.0, abs=1e-3)

    def test_closed_phase_length(self):
        # closure to next opening: period * (1 - 0.40 - 0.16) zero samples
        pulse = rosenberg_source([100.0], 100, 10000.0)
        closed_run = round(100 * (1 - 0.40 - 0.16))
        assert np.all(pulse[100 - closed_run :] == 0.0)
        assert pulse[100 - closed_run - 1] > 0.0

    def test_harmonic_peaks(self):
        fs = 10000.0
        f0 = 125.0
        pulse = rosenberg_source([f0] * 50, 400, fs, hop=400)
        spec = np.abs(np.fft.rfft(pulse * np.hanning(pulse.size)))
        freqs = np.fft.rfftfreq(pulse.size, 1 / fs)
        bin_width = freqs[1] - freqs[0]
        peaks, _ = sps.find_peaks(spec, height=spec.max() * 0.01)
        for k in range(1, 6):
            assert np.abs(freqs[peaks] - k * f0).min() <= bin_width

    def test_f0_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            rosenberg_source([6000.0], 100, 10000.0)

    def test_phase_continuity_across_hops(self):
        a = rosenberg_source([100.0, 100.0], 200, 10000.0, hop=100)
        b = rosenberg_source([100.0], 300, 10000.0, hop=300)
        assert np.abs(a - b[: a.size]).max() < 1e-12


class TestSynthesize:
    def vowel_spec(self, n_frames=8, seed=0, source="white_noise"):
        f0_hz = 110.0 if source == "rosenberg" else None
        return constant_spec([(600.0, 80.0), (1600.0, 120.0)], n_frames, source, 40.0, 10000.0, seed, f0_hz)

    def test_all_silence_gives_zero_waveform(self):
        wave, ref = synthesize(constant_spec([(500.0, 100.0)], 5, "silence", 20.0, 8000.0, seed=1))
        assert np.all(wave.samples == 0.0)
        assert not ref.speech.any()

    def test_deterministic_per_seed(self):
        w1, _ = synthesize(self.vowel_spec(seed=5))
        w2, _ = synthesize(self.vowel_spec(seed=5))
        w3, _ = synthesize(self.vowel_spec(seed=6))
        assert np.array_equal(w1.samples, w2.samples)
        assert not np.array_equal(w1.samples, w3.samples)

    def test_reference_alignment(self):
        spec = self.vowel_spec(n_frames=6)
        wave, ref = synthesize(spec)
        assert ref.n_frames == 6
        assert wave.samples.size == 5 * spec.hop + spec.frame_length
        assert ref.hop_s == pytest.approx(spec.hop / spec.sample_rate_hz)

    def test_spectral_peaks_at_formants(self):
        fs = 10000.0
        psd_acc = None
        for seed in range(100):
            wave, _ = synthesize(constant_spec([(700.0, 60.0), (2000.0, 90.0)], 1, "white_noise", 100.0, fs, seed))
            f, psd = sps.periodogram(wave.samples, fs=fs)
            psd_acc = psd if psd_acc is None else psd_acc + psd
        for target in (700.0, 2000.0):
            band = (f > target - 300) & (f < target + 300)
            peak = f[band][np.argmax(psd_acc[band])]
            assert abs(peak - target) < 50.0

    @staticmethod
    def mixed_spec(seed, frame_ms, overlap):
        """Rosenberg, white-noise and silence frames in random order, with
        random absent formants and antiformants."""
        rng = np.random.default_rng(seed)
        base = random_trajectory(
            3, 0.6, seed, 16000.0, source="rosenberg", frame_ms=frame_ms, overlap_fraction=overlap
        )
        n = base.n_frames
        sources = rng.choice(["rosenberg", "white_noise", "silence"], n)
        sources[[0, -1]] = "silence"
        return dataclasses.replace(
            base,
            sources=sources,
            antiformant_freqs=rng.uniform(500.0, 3000.0, (n, 2)),
            antiformant_bws=rng.uniform(30.0, 300.0, (n, 2)),
            formant_present=rng.random((n, 3)) < 0.7,
            antiformant_present=rng.random((n, 2)) < 0.5,
        )

    @pytest.mark.parametrize(
        "make_specs",
        [
            *[
                pytest.param(
                    lambda s=seed, src=source: [random_trajectory(4, 10.0, s, 16000.0, source=src)],
                    id=f"corpus{seed}-{source}",
                )
                for seed in range(100, 106)
                for source in ("white_noise", "rosenberg")
            ],
            pytest.param(lambda: [nasal_utterance_spec(s) for s in range(700, 740)], id="nasal700-739"),
            pytest.param(lambda: [TestSynthesize.mixed_spec(1, 20.0, 0.0)], id="overlap0"),
            pytest.param(lambda: [TestSynthesize.mixed_spec(2, 20.0, 0.75)], id="overlap0.75"),
            # 321-sample frames: hops of 160 and 80 do not divide them
            pytest.param(lambda: [TestSynthesize.mixed_spec(3, 20.0625, 0.5)], id="odd-length"),
            pytest.param(lambda: [TestSynthesize.mixed_spec(4, 20.0625, 0.75)], id="odd-length-0.75"),
        ],
    )
    def test_equals_frozen_reference(self, make_specs):
        for spec in make_specs():
            assert np.array_equal(synthesize(spec)[0].samples, frozen_synthesize(spec))

    def test_nasal_spec_valley_near_antiformant(self):
        spec = nasal_utterance_spec()
        wave, ref = synthesize(spec)
        fs = spec.sample_rate_hz
        length, hop = spec.frame_length, spec.hop
        hits = 0
        nasal_frames = [t for t in range(spec.n_frames) if ref.antiformant_active[t, 0]]
        for t in nasal_frames:
            seg = wave.samples[t * hop : t * hop + length]
            f, psd = sps.periodogram(seg, fs=fs, window="hann")
            db = 10 * np.log10(psd + 1e-18)
            band = (f > 900) & (f < 1600)
            valleys, _ = sps.find_peaks(-db[band])
            if valleys.size:
                nearest = np.abs(f[band][valleys] - ref.antiformant_freqs[t, 0]).min()
                hits += nearest < 100.0
        assert hits / len(nasal_frames) > 0.8

    @pytest.mark.parametrize("seed", [155, 1008, 1060, 1113, 1358, 1450, 1668])
    def test_nasal_walk_reflected_above_50_hz(self, seed):
        """Seeds whose F1 walk crosses 0 Hz keep every frequency above 50 Hz
        and synthesize; below that floor the walk is mirrored."""
        spec = nasal_utterance_spec(seed)
        assert spec.formant_freqs[:, 0].min() >= 50.0
        wave, ref = synthesize(spec)
        assert np.all(np.isfinite(wave.samples)) and np.abs(wave.samples).max() > 0
        assert np.array_equal(ref.formant_freqs, spec.formant_freqs)

    def test_nasal_spec_plan(self):
        spec = nasal_utterance_spec()
        assert spec.n_frames == 75
        assert spec.sample_rate_hz == 10000.0
        assert spec.frame_length == 1000 and spec.hop == 500
        active = spec.antiformant_present[:, 0]
        assert active[:25].all() and active[50:].all()
        assert not active[25:50].any()


class TestFilterRows:
    def test_equals_per_row_lfilter(self, rng):
        """Mixed formant and antiformant counts, including none (numerator [1])."""
        fs, n_rows = 10000.0, 12
        x = rng.standard_normal((n_rows, 200))
        b, a = np.zeros((n_rows, 5)), np.zeros((n_rows, 9))
        for t in range(n_rows):
            n_f, n_af = 1 + t % 4, t % 3
            den = resonator_cascade(rng.uniform(100, 4900, n_f), rng.uniform(20, 300, n_f), fs)
            num = resonator_cascade(rng.uniform(100, 4900, n_af), rng.uniform(20, 300, n_af), fs)
            a[t, : den.size], b[t, : num.size] = den, num
        y = _filter_rows(b, a, x)
        for t in range(n_rows):
            assert np.array_equal(y[t], sps.lfilter(b[t], a[t], x[t]))


class TestPchip:
    @pytest.mark.parametrize(
        "knots,values",
        [
            ([0.0, 0.4], [300.0, 700.0]),  # two keyframes: the secant
            ([0.0, 0.4, 0.8], [300.0, 700.0, 500.0]),  # a sign change
            ([0.0, 0.3, 0.5, 1.2], [2.0, 2.0, 5.0, -1.0]),  # a flat segment first
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 6.0, 7.0]),  # end slopes of the wrong sign: zeroed
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -9.0, -8.0]),  # end slopes capped at 3x the secant
            ([0.0, 0.1, 0.2, 0.7, 0.9, 1.0, 1.6, 2.0], [0.0, 1.0, 1.0, 4.0, -2.0, -2.5, 3.0, 3.0]),
            (np.linspace(0.0, 6.0, 16), np.random.default_rng(5).uniform(40.0, 250.0, 16)),
        ],
    )
    def test_equals_scipy_pchip(self, knots, values):
        knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
        at = np.concatenate((np.linspace(-0.1, knots[-1] + 0.1, 997), knots))  # knots and both ends
        assert np.array_equal(_pchip(knots, values, at), PchipInterpolator(knots, values)(at))


class TestRandomTrajectory:
    def test_deterministic(self):
        a = random_trajectory(3, 1.0, seed=4, sample_rate_hz=16000.0)
        b = random_trajectory(3, 1.0, seed=4, sample_rate_hz=16000.0)
        assert np.array_equal(a.formant_freqs, b.formant_freqs)
        assert np.array_equal(a.formant_bws, b.formant_bws)

    def test_ordering_and_separation(self):
        for seed in range(20):
            spec = random_trajectory(3, 1.0, seed=seed, sample_rate_hz=16000.0)
            assert np.all(np.diff(spec.formant_freqs, axis=1) >= 150.0 - 1e-9)

    def test_frequencies_below_nyquist(self):
        spec = random_trajectory(4, 5.0, seed=1, sample_rate_hz=16000.0)
        assert np.all(spec.formant_freqs < 8000.0)
        assert np.all((spec.formant_bws >= 40.0) & (spec.formant_bws <= 250.0))

    @pytest.mark.parametrize(
        "n_formants, duration_s, message",
        [
            (3, 0.0, "duration_s"),
            (3, -1.0, "duration_s"),
            (3, np.nan, "duration_s"),
            (3, np.inf, "duration_s"),
            (-1, 1.0, "n_formants"),
            (5, 1.0, "n_formants"),
        ],
        ids=["zero_duration", "negative_duration", "nan_duration", "infinite_duration", "negative_count", "five"],
    )
    def test_bad_arguments_rejected(self, n_formants, duration_s, message):
        with pytest.raises(ValueError, match=message):
            random_trajectory(n_formants, duration_s, seed=1, sample_rate_hz=16000.0)

    def test_voiced_variant_has_f0(self):
        spec = random_trajectory(3, 0.5, seed=2, sample_rate_hz=16000.0, source="rosenberg")
        assert np.all((spec.f0_hz >= 90.0) & (spec.f0_hz <= 220.0))


def reference_nasal_tracks(seed):
    """The nasal demo's formant and antiformant tracks, each segment boundary
    blended frame by frame; the draws come in the order the spec takes them."""
    segment = np.repeat([0, 1, 0], 25)  # 0 = nasal, 1 = vowel

    def blend(a, b):
        vals = np.where(segment == 0, a, b).astype(float)
        for boundary in (25, 50):
            for k in range(5):
                w = (k + 1) / 6
                vals[boundary + k] = (1 - w) * vals[boundary - 1] + w * (b if segment[boundary] == 1 else a)
        return vals

    rng = np.random.default_rng(seed)
    walks = [np.cumsum(rng.normal(0.0, 10.0, 75)) for _ in range(2)]
    jitters = [rng.normal(0.0, 10.0 / 3.0, 75) for _ in range(2)]
    anti_walk, anti_jitter = np.cumsum(rng.normal(0.0, 10.0, 75)), rng.normal(0.0, 10.0 / 3.0, 75)

    def reflect(freqs):
        return np.where(freqs < 50.0, 100.0 - freqs, freqs)

    freqs = reflect(np.column_stack([blend(257.0, 850.0) + walks[0], blend(1891.0, 1500.0) + walks[1]]))
    bws = np.maximum(np.column_stack([blend(32.0, 80.0) + jitters[0], blend(100.0, 120.0) + jitters[1]]), 8.0)
    return freqs, bws, reflect(1223.0 + anti_walk)[:, None], np.maximum(52.0 + anti_jitter, 8.0)[:, None]


class TestNasalUtteranceSpec:
    @pytest.mark.parametrize("seed", [0, 155, *range(700, 740)])
    def test_tracks_equal_the_per_frame_blend(self, seed):
        spec = nasal_utterance_spec(seed)
        tracks = (spec.formant_freqs, spec.formant_bws, spec.antiformant_freqs, spec.antiformant_bws)
        for got, expected in zip(tracks, reference_nasal_tracks(seed)):
            assert np.array_equal(got, expected)


class TestSpecSerialization:
    def test_json_roundtrip(self, tmp_path):
        voiced = random_trajectory(3, 0.5, seed=2, sample_rate_hz=16000.0, source="rosenberg")
        for spec in (nasal_utterance_spec(), voiced):
            path = tmp_path / "spec.json"
            save_spec(spec, path)
            back = load_spec(path)
            for field in dataclasses.fields(TrajectorySpec):
                a, b = np.asarray(getattr(spec, field.name)), np.asarray(getattr(back, field.name))
                assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field.name

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid trajectory spec"):
            spec_from_json({"frames": [{}]})

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            constant_spec([(500.0, 80.0)], 1, "square_wave", 20.0, 8000.0)

    def test_rosenberg_requires_f0(self):
        with pytest.raises(ValueError, match="f0"):
            constant_spec([(500.0, 80.0)], 1, "rosenberg", 20.0, 8000.0)


class TestSpecValidation:
    BASE = constant_spec([(500.0, 80.0), (1500.0, 120.0)], 3, "rosenberg", 20.0, 8000.0, seed=3, f0_hz=120.0)

    # cases beyond the malformed spec files that test_cli feeds to ``karma synth``
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sample_rate_hz": np.nan}, "sample_rate_hz"),
            ({"frame_ms": np.inf}, "frame_ms"),
            ({"overlap_fraction": 1.0}, "overlap_fraction"),
            ({"formant_freqs": np.tile([500.0, 4000.0], (3, 1))}, "frequencies"),
            ({"formant_freqs": np.tile([0.0, 1500.0], (3, 1))}, "frequencies"),
            ({"antiformant_freqs": np.full((3, 1), 1200.0)}, "antiformant columns"),
            ({"formant_present": np.ones((3, 1), bool)}, "formant columns"),
            ({"formant_freqs": np.array([500.0, 1500.0])}, "formant columns"),
            ({"f0_hz": np.full(2, 120.0)}, "f0_hz"),
            ({"f0_hz": np.array([120.0, np.nan, 120.0])}, "rosenberg"),
        ],
        ids=[
            "nan_rate",
            "infinite_frame",
            "full_overlap",
            "formant_at_nyquist",
            "zero_frequency",
            "antiformant_without_bandwidth",
            "presence_shape",
            "one_dimensional_column",
            "f0_length",
            "rosenberg_frame_without_f0",
        ],
    )
    def test_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(self.BASE, **change)

    def test_white_noise_frames_need_no_f0(self):
        spec = dataclasses.replace(
            self.BASE,
            sources=np.array(["white_noise", "silence", "rosenberg"]),
            f0_hz=np.array([np.nan, np.nan, 120.0]),
        )
        wave, ref = synthesize(spec)
        assert ref.speech.tolist() == [True, False, True]
        assert np.all(np.isfinite(wave.samples))


@pytest.mark.parametrize("f0", [[0.0], [100.0, -100.0]], ids=["zero", "negative"])
def test_input_checks(f0):
    with pytest.raises(ValueError, match="^f0 must be positive"):
        rosenberg_source(f0, 100, 10000.0)
