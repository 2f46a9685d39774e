import json

import numpy as np
import pytest

from karma.cli import main
from karma.evaluation import read_tracks, write_tracks
from karma.frontend import read_wav, write_wav
from karma.synthesis import nasal_utterance_spec, random_trajectory, synthesize


@pytest.fixture
def vowel_wav(tmp_path):
    spec = random_trajectory(3, 0.8, seed=21, sample_rate_hz=16000.0)
    wave, ref = synthesize(spec)
    path = tmp_path / "vowel.wav"
    write_wav(path, wave)
    return path, ref


class TestTrackCommand:
    def test_writes_csv_with_expected_shape(self, tmp_path, vowel_wav, capsys):
        wav_path, _ = vowel_wav
        out = tmp_path / "tracks.csv"
        code = main(["track", str(wav_path), "--out", str(out)])
        assert code == 0
        res = read_tracks(out)
        assert res.n_formants == 3 and res.n_antiformants == 0
        assert "formant 1" in capsys.readouterr().out

    def test_nasal_config_track_shape(self, tmp_path, capsys):
        from karma.cli import _resolve_spec
        from karma.synthesis import synthesize as synth

        spec = _resolve_spec("nan")
        wave, _ = synth(spec)
        wav_path = tmp_path / "nan.wav"
        write_wav(wav_path, wave)
        cfg = {
            "target_sample_rate_hz": 8000.0,
            "lpc_order": 16,
            "ma_order": 4,
            "n_cepstra": 20,
            "n_formants": 3,
            "n_antiformants": 2,
        }
        cfg_path = tmp_path / "nasal.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "nan.csv"
        code = main(["track", str(wav_path), "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        res = read_tracks(out)
        assert res.n_formants == 3 and res.n_antiformants == 2

    @pytest.mark.parametrize("source, code", [("real_cepstrum", 0), ("arma_cepstrum", 2)])
    def test_antiformant_without_ma_order(self, tmp_path, vowel_wav, source, code):
        wav_path, _ = vowel_wav
        cfg_path = tmp_path / "anti.json"
        cfg_path.write_text(json.dumps({"n_antiformants": 1, "observation_source": source}))
        out = tmp_path / "anti.csv"
        assert main(["track", str(wav_path), "--config", str(cfg_path), "--out", str(out)]) == code

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["track", str(tmp_path / "nope.wav")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, vowel_wav, capsys):
        wav_path, _ = vowel_wav
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"lpc_order": 2}))
        code = main(["track", str(wav_path), "--config", str(cfg_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "cfg",
        [
            {"window": "blackman"},
            {"frame_ms": 0.0},
            {"frame_ms": -20.0},
            {"lpc_order": 0, "n_formants": 0},
            {"initial_formant_freqs": [500.0]},
            {"freq_process_std": -1.0},
            {"bw_process_std": -1.0},
            {"frame_ms": 0.05},
            {"fit_transition": False},
            {"n_formants": -1},
            {"n_antiformants": -1},
            {"n_formants": 0},
            {"lpc_order": "12"},
            {"overlap": "0.5"},
            {"n_cepstra": 15.5},
            {"initial_formant_freqs": 500},
            5,
            {"lpc_order": True},
            {"gamma": False},
            {"initial_formant_freqs": [500.0, True, 2500.0]},
            {"freq_process_std": float("inf")},
            {"bw_process_std": float("inf")},
            {"energy_threshold_db": float("nan")},
            {"gamma": float("nan")},
            {"target_sample_rate_hz": float("inf")},
        ],
        ids=["window", "frame_ms_zero", "frame_ms_negative", "lpc_order_zero",
             "override_length", "freq_std_negative", "bw_std_negative",
             "frame_ms_below_one_sample", "retired_key", "formants_negative",
             "antiformants_negative", "no_tracks", "int_as_string", "float_as_string",
             "int_as_float", "override_not_a_list", "not_an_object", "bool_as_int",
             "bool_as_float", "bool_in_override", "freq_std_infinite", "bw_std_infinite",
             "energy_threshold_nan", "gamma_nan", "sample_rate_infinite"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, vowel_wav, capsys, cfg):
        wav_path, _ = vowel_wav
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["track", str(wav_path), "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "bad config" in capsys.readouterr().err

    def test_filter_vs_smooth_variances(self, tmp_path, vowel_wav):
        wav_path, _ = vowel_wav
        out_f = tmp_path / "f.csv"
        out_s = tmp_path / "s.csv"
        assert main(["track", str(wav_path), "--mode", "filter", "--out", str(out_f)]) == 0
        assert main(["track", str(wav_path), "--mode", "smooth", "--out", str(out_s)]) == 0
        filt = read_tracks(out_f)
        smth = read_tracks(out_s)
        speech = filt.speech
        frac = np.mean(smth.variances[speech] <= filt.variances[speech] + 1e-12)
        assert frac >= 0.95

    def test_realcep_mode_runs(self, tmp_path, vowel_wav):
        wav_path, _ = vowel_wav
        out = tmp_path / "rc.csv"
        code = main(["track", str(wav_path), "--obs", "realcep", "--out", str(out)])
        assert code == 0


class TestSynthCommand:
    def test_bundled_nasal_spec(self, tmp_path, capsys):
        wav = tmp_path / "nan.wav"
        ref = tmp_path / "ref.csv"
        code = main(["synth", "nan", "--out", str(wav), "--ref", str(ref)])
        assert code == 0
        w = read_wav(wav)
        assert w.sample_rate_hz == 10000.0
        assert abs(w.duration_s - 3.8) < 0.05
        tracks = read_tracks(ref)
        assert tracks.n_frames == 75

    def test_nasal_seed_draws_the_demo_trajectory(self, tmp_path):
        def synth(name, *seed):
            wav, ref = tmp_path / f"{name}.wav", tmp_path / f"{name}.csv"
            assert main(["synth", "nan", "--out", str(wav), "--ref", str(ref), *seed]) == 0
            return wav.read_bytes(), ref.read_bytes()

        wave, reference = synthesize(nasal_utterance_spec(716))
        write_wav(tmp_path / "expected.wav", wave)
        write_tracks(reference, tmp_path / "expected.csv")
        expected = (tmp_path / "expected.wav").read_bytes(), (tmp_path / "expected.csv").read_bytes()
        assert synth("s716", "--seed", "716") == expected
        assert synth("default") == synth("s715", "--seed", "715") != expected

    def test_seed_changes_waveform_not_reference(self, tmp_path):
        spec_path = tmp_path / "noise.json"
        spec_path.write_text(
            json.dumps(
                {
                    "sample_rate_hz": 8000.0,
                    "frame_ms": 20.0,
                    "overlap_fraction": 0.5,
                    "frames": [
                        {"source": "white_noise", "formant_freqs": [600.0], "formant_bws": [90.0]}
                    ]
                    * 6,
                }
            )
        )
        w1, w2 = tmp_path / "a.wav", tmp_path / "b.wav"
        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", str(spec_path), "--out", str(w1), "--ref", str(r1), "--seed", "5"]) == 0
        assert main(["synth", str(spec_path), "--out", str(w2), "--ref", str(r2), "--seed", "6"]) == 0
        assert read_wav(w1).samples.tolist() != read_wav(w2).samples.tolist()
        a, b = read_tracks(r1), read_tracks(r2)
        assert np.array_equal(a.means, b.means)

    def test_silence_spec_zero_wav(self, tmp_path):
        spec_path = tmp_path / "quiet.json"
        spec_path.write_text(
            json.dumps(
                {
                    "sample_rate_hz": 8000.0,
                    "frame_ms": 20.0,
                    "overlap_fraction": 0.5,
                    "frames": [
                        {"source": "silence", "formant_freqs": [500.0], "formant_bws": [80.0]}
                    ]
                    * 4,
                }
            )
        )
        wav = tmp_path / "quiet.wav"
        assert main(["synth", str(spec_path), "--out", str(wav)]) == 0
        assert np.all(read_wav(wav).samples == 0.0)

    def test_missing_spec_exits_2(self, capsys):
        assert main(["synth", "does-not-exist.json"]) == 2

    def test_schema_violation_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"frames": []}))
        assert main(["synth", str(bad)]) == 2


class TestEvalCommand:
    def test_identical_files_zero(self, tmp_path, vowel_wav, capsys):
        _, ref = vowel_wav
        path = tmp_path / "ref.csv"
        write_tracks(ref, path)
        code = main(["eval", str(path), str(path)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["overall_hz"] == 0.0

    def test_frame_mismatch_without_offset_exits_2(self, tmp_path, vowel_wav, capsys):
        _, ref = vowel_wav
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_tracks(ref, a)
        import dataclasses

        shorter = dataclasses.replace(
            ref,
            means=ref.means[:-3],
            covariances=ref.covariances[:-3],
            speech=ref.speech[:-3],
            formant_active=ref.formant_active[:-3],
            antiformant_active=ref.antiformant_active[:-3],
        )
        write_tracks(shorter, b)
        assert main(["eval", str(a), str(b)]) == 2

    def test_formant_count_restricts_columns(self, tmp_path, vowel_wav, capsys):
        _, ref = vowel_wav
        path = tmp_path / "ref.csv"
        write_tracks(ref, path)
        code = main(["eval", str(path), str(path), "--formants", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(payload["per_formant_hz"]) == 2


class TestComparePfCommand:
    def test_csv_shape_and_determinism(self, tmp_path):
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        args = ["compare-pf", "--trials", "1", "--particles", "10", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("particles,pf_rmse")
        assert out1.read_text() == out2.read_text()

    def test_empty_particle_list_exits_2(self):
        assert main(["compare-pf", "--particles", ""]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--particles", "abc"],
            ["--particles", "5"],
            ["--trials", "-1"],
            ["--trials", "0"],
        ],
        ids=["non-numeric-count", "count-below-10", "negative-trials", "zero-trials"],
    )
    def test_bad_counts_exit_2(self, args, capsys):
        assert main(["compare-pf", "--particles", "10", "--trials", "1"] + args) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""
