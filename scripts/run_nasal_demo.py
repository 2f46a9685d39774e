#!/usr/bin/env python3
"""Antiformant tracking demo on a synthesized nasal-vowel-nasal utterance.

Synthesizes the /n a n/-style demo trajectory (two formants plus one
alveolar-nasal antiformant, glottal-pulse source), tracks it with the
antiformant track scheduled active only in the nasal segments, and prints
tracking error plus the per-segment antiformant uncertainty.
"""

import argparse

import numpy as np

from karma.evaluation import write_tracks
from karma.frontend import write_wav
from karma.pipeline import RunConfig, track_waveform
from karma.synthesis import nasal_utterance_spec, synthesize
from karma.tracker import TrackActivation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=715)
    parser.add_argument("--wav-out", default=None, help="optionally write the waveform")
    parser.add_argument("--csv-out", default=None, help="optionally write the tracks")
    args = parser.parse_args()

    spec = nasal_utterance_spec(seed=args.seed)
    wave, reference = synthesize(spec)
    config = RunConfig(
        target_sample_rate_hz=10000.0,
        frame_ms=100.0,
        overlap=0.5,
        gamma=0.9,
        lpc_order=6,
        ma_order=4,
        n_cepstra=15,
        n_formants=2,
        n_antiformants=1,
    )
    activation = TrackActivation(reference.formant_active, reference.antiformant_active)
    result = track_waveform(wave, config, activation=activation)

    keep = np.arange(10, result.n_frames)
    nasal = reference.antiformant_active[keep, 0]
    formant_rmse = np.sqrt(
        np.mean((result.formant_freqs[keep] - reference.formant_freqs[keep]) ** 2, axis=0)
    )
    af_err = (result.antiformant_freqs[keep, 0] - reference.antiformant_freqs[keep, 0])[nasal]
    print(f"formant frequency RMSE:     {np.round(formant_rmse, 1).tolist()} Hz")
    print(f"antiformant frequency RMSE: {np.sqrt(np.mean(af_err ** 2)):.1f} Hz (nasal frames)")

    af_var = result.variances[:, 2 * result.n_formants]
    nasal_all = reference.antiformant_active[:, 0]
    print(f"antiformant freq std, nasal frames: {np.sqrt(af_var[nasal_all].mean()):.1f} Hz")
    print(f"antiformant freq std, vowel frames: {np.sqrt(af_var[~nasal_all].mean()):.1f} Hz")

    if args.wav_out:
        write_wav(args.wav_out, wave)
        print(f"wrote {args.wav_out}")
    if args.csv_out:
        write_tracks(result, args.csv_out)
        print(f"wrote {args.csv_out}")


if __name__ == "__main__":
    main()
