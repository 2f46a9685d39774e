"""Command-line entry point.

Subcommands:

* ``track``      -- track formants/antiformants in a WAV file, write a CSV.
* ``synth``      -- synthesize a trajectory spec to WAV plus reference CSV.
* ``eval``       -- compare an estimated track CSV against a reference CSV.
* ``compare-pf`` -- Monte Carlo EKF-vs-particle-filter error comparison.

Exit codes: 0 ok, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cepstrum import state_columns
from .evaluation import read_tracks, rmse, write_tracks
from .frontend import read_label_file, read_wav, write_wav
from .particle import _benchmark_counts, ekf_pf_benchmark
from .pipeline import RunConfig, track_waveform
from .synthesis import load_spec, nasal_utterance_spec, synthesize

__all__ = ["main"]


class UsageError(Exception):
    """Bad arguments, missing files, or invalid configuration."""


def _load_config(args) -> RunConfig:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            config = RunConfig.load(path)
        except (ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config: {exc}") from exc
    else:
        config = RunConfig()
    if args.mode:
        config.mode = args.mode
    if args.obs:
        config.observation_source = {"arma": "arma_cepstrum", "realcep": "real_cepstrum"}[args.obs]
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from exc
    return config


def _require_file(path_str: str, kind: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise UsageError(f"{kind} not found: {path}")
    return path


def _output_path(path_str: str) -> str:
    """``path_str``, after checking that a file can be created there: a
    missing directory or a directory in its place raises the ``OSError``
    that writing would (exit 1), before the analysis runs."""
    path = Path(path_str)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path_str)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path_str)
    return path_str


def cmd_track(args) -> int:
    config = _load_config(args)
    wav_path = _require_file(args.input, "input file")
    try:
        waveform = read_wav(wav_path)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    labels = None
    if args.labels:
        try:
            labels = read_label_file(_require_file(args.labels, "label file"))
        except ValueError as exc:  # too few fields, a non-integer index, undecodable bytes
            raise UsageError(f"bad label file: {exc}") from exc

    out = _output_path(args.out or str(wav_path.with_suffix(".tracks.csv")))
    result = track_waveform(waveform, config, labels=labels)
    write_tracks(result, out)

    stds = np.sqrt(np.maximum(result.variances, 0.0))
    print(f"wrote {out} ({result.n_frames} frames, mode={config.mode})")
    f, _, af, _ = state_columns(result.n_formants, result.n_antiformants)
    for name, freqs, freq_stds in (
        ("formant", result.formant_freqs, stds[:, f]),
        ("antiformant", result.antiformant_freqs, stds[:, af]),
    ):
        for k in range(freqs.shape[1]):
            print(
                f"  {name} {k + 1}: mean {freqs[:, k].mean():8.1f} Hz, "
                f"mean posterior std {freq_stds[:, k].mean():7.1f} Hz"
            )
    return 0


def _resolve_spec(spec_arg: str, seed: int | None = None):
    """A spec file with its excitation seed replaced by ``seed``, or for
    ``nan``/``nan.json`` the nasal demo utterance drawn with ``seed``."""
    path = Path(spec_arg)
    if path.exists():
        spec = load_spec(path)
        return spec if seed is None else dataclasses.replace(spec, seed=seed)
    if spec_arg in ("nan", "nan.json"):
        return nasal_utterance_spec() if seed is None else nasal_utterance_spec(seed)
    raise UsageError(f"spec not found: {spec_arg}")


def cmd_synth(args) -> int:
    try:
        spec = _resolve_spec(args.spec, args.seed)
    except ValueError as exc:
        raise UsageError(f"bad spec: {exc}") from exc
    out = _output_path(args.out or "synth.wav")
    ref = args.ref and _output_path(args.ref)
    waveform, reference = synthesize(spec)
    write_wav(out, waveform)
    print(f"wrote {out} ({waveform.duration_s:.2f} s at {waveform.sample_rate_hz:.0f} Hz)")
    if ref:
        write_tracks(reference, ref)
        print(f"wrote {ref} ({reference.n_frames} reference frames)")
    return 0


def _read_track_file(path_str: str, kind: str):
    path = _require_file(path_str, kind)
    try:
        return read_tracks(path)
    except ValueError as exc:
        raise UsageError(f"bad {kind} {path}: {exc}") from exc


def cmd_eval(args) -> int:
    est = _read_track_file(args.estimate, "estimate file")
    ref = _read_track_file(args.reference, "reference file")
    try:
        report = rmse(
            est,
            ref,
            mask=ref.speech,
            formant_count=args.formants,
            offset=args.offset,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"{'formant':>10} {'rmse_hz':>10}")
    for k, value in enumerate(report.per_formant, start=1):
        print(f"{k:>10} {value:>10.2f}")
    print(f"{'overall':>10} {report.overall:>10.2f}")
    print(json.dumps(report.as_dict()))
    return 0


def cmd_compare_pf(args) -> int:
    try:
        counts = [int(v) for v in args.particles.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"bad particle count: {exc}") from exc
    try:
        _benchmark_counts(args.trials, counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = args.out and _output_path(args.out)
    summary = ekf_pf_benchmark(trials=args.trials, particle_counts=counts, seed=args.seed)
    lines = ["particles,pf_rmse,pf_ci_low,pf_ci_high,ekf_rmse,ekf_ci_low,ekf_ci_high"]
    ekf = summary["ekf"]
    for count in counts:
        pf = summary["pf"][count]
        lines.append(
            f"{count},{pf['mean']:.6f},{pf['ci_low']:.6f},{pf['ci_high']:.6f},"
            f"{ekf['mean']:.6f},{ekf['ci_low']:.6f},{ekf['ci_high']:.6f}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="karma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="track resonances in a WAV file")
    track.add_argument("input", help="input WAV path")
    track.add_argument("--config", help="JSON RunConfig path")
    track.add_argument("--mode", choices=["filter", "smooth"])
    track.add_argument("--labels", help="label file: 'start_sample end_sample label' lines")
    track.add_argument("--obs", choices=["arma", "realcep"])
    track.add_argument("--out", help="output CSV path")
    track.set_defaults(func=cmd_track)

    synth = sub.add_parser("synth", help="synthesize a trajectory spec")
    synth.add_argument("spec", help="spec JSON path, or 'nan' for the nasal demo utterance")
    synth.add_argument("--out", help="output WAV path")
    synth.add_argument("--ref", help="reference track CSV path")
    synth.add_argument(
        "--seed",
        type=int,
        default=None,
        help="excitation-noise seed of a spec file; for 'nan', the demo's trajectory seed (default 715)",
    )
    synth.set_defaults(func=cmd_synth)

    ev = sub.add_parser("eval", help="RMSE of an estimate CSV against a reference CSV")
    ev.add_argument("estimate")
    ev.add_argument("reference")
    ev.add_argument("--formants", type=int, default=3)
    ev.add_argument("--offset", type=int, default=None)
    ev.set_defaults(func=cmd_eval)

    cmp_pf = sub.add_parser("compare-pf", help="EKF vs particle filter Monte Carlo")
    cmp_pf.add_argument("--trials", type=int, default=25)
    cmp_pf.add_argument("--particles", default="100,1000", help="comma-separated counts")
    cmp_pf.add_argument("--seed", type=int, default=0)
    cmp_pf.add_argument("--out", help="output CSV path")
    cmp_pf.set_defaults(func=cmd_compare_pf)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
