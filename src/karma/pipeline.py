"""End-to-end tracking pipeline: waveform in, resonance tracks out.

Ties the front end, per-frame model fitting, cepstral observation
generation, and Kalman tracking together under one dataclass config whose
defaults reproduce the standard analysis conditions (7 kHz rate, 20 ms
Hamming frames at 50 % overlap, pre-emphasis 0.7, AR order 12, 15 cepstral
coefficients, three formants).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .arma import fit_arma_frames
from .arma import estimate_ar, estimate_arma  # noqa: F401  (looked up here by bench/tracing.py)
from .cepstrum import _fft_size, _real_cepstra, arma_cepstra, state_columns
from .cepstrum import arma_to_cepstrum, real_cepstrum  # noqa: F401  (looked up here by bench/tracing.py)
from .frontend import (
    _WINDOWS,
    LabelInterval,
    Waveform,
    _activity_of_blocks,
    _frame_blocks,
    _frame_count,
    _resampled,
    _resampled_length,
    _row_blocks,
    activity_from_labels,
    frame_length_and_hop,
    preemphasize,
)
from .frontend import detect_activity, resample, window_frames  # noqa: F401  (looked up here by bench/tracing.py)
from .tracker import TrackActivation, TrackerParams, TrackResult, default_params, ekf_filter, eks_smooth
from .tracker import _check_counts, _checked_activation
from .tracker import estimate_transition  # noqa: F401  (looked up here by bench/tracing.py)

__all__ = ["RunConfig", "make_tracker_params", "build_observations", "track_waveform"]

OBSERVATION_SOURCES = ("arma_cepstrum", "real_cepstrum")
MODES = ("filter", "smooth")


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of the config field with this default:
    an int for an int field, any number for a float field (never a bool), a
    string for a string field, and a list of numbers or null for the
    ``initial_*`` overrides, whose default is None."""
    if default is None:
        return value is None or (isinstance(value, list) and all(_fits(v, 0.0) for v in value))
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


@dataclass
class RunConfig:
    """Analysis and tracker configuration for one tracking run."""

    target_sample_rate_hz: float = 7000.0
    frame_ms: float = 20.0
    overlap: float = 0.5
    gamma: float = 0.7
    window: str = "hamming"
    lpc_order: int = 12  # p
    ma_order: int = 0  # q
    n_cepstra: int = 15  # N
    n_formants: int = 3  # I
    n_antiformants: int = 0  # J
    observation_source: str = "arma_cepstrum"
    mode: str = "smooth"
    energy_threshold_db: float = -40.0
    freq_process_std: float = 320.0
    bw_process_std: float = 100.0
    initial_formant_freqs: list[float] | None = None
    initial_formant_bws: list[float] | None = None
    initial_antiformant_freqs: list[float] | None = None
    initial_antiformant_bws: list[float] | None = None

    def validate(self) -> None:
        for field in dataclasses.fields(self):  # JSON admits NaN and Infinity
            value = getattr(self, field.name)
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"{field.name} must be finite")
        _check_counts(self.n_formants, self.n_antiformants, self.n_cepstra)
        if self.observation_source == "arma_cepstrum":  # the only route that fits a model
            if self.lpc_order < 1:
                raise ValueError("lpc_order must be positive")
            if self.n_cepstra < max(self.lpc_order, self.ma_order):
                raise ValueError("n_cepstra must be at least max(lpc_order, ma_order)")
            if self.lpc_order < 2 * self.n_formants:
                raise ValueError("lpc_order must be at least 2 * n_formants")
            if self.ma_order < 2 * self.n_antiformants:
                raise ValueError("ma_order must be at least 2 * n_antiformants")
        if not 0 <= self.overlap < 1:
            raise ValueError("overlap must be in [0, 1)")
        if self.observation_source not in OBSERVATION_SOURCES:
            raise ValueError(f"observation_source must be one of {OBSERVATION_SOURCES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.target_sample_rate_hz <= 0:
            raise ValueError("target sample rate must be positive")
        if abs(self.gamma) > 1:
            raise ValueError("|gamma| must be <= 1")
        if self.window not in _WINDOWS:
            raise ValueError(f"window must be one of {tuple(_WINDOWS)}")
        n = frame_length_and_hop(self.frame_ms, self.overlap, self.target_sample_rate_hz)[0]
        if n < 1:
            raise ValueError("frame_ms must span at least one sample at the analysis rate")
        if self.observation_source == "real_cepstrum":
            n_max = _fft_size(n) // 2  # the columns _real_cepstra returns
            if self.n_cepstra > n_max:
                raise ValueError(f"n_cepstra must be at most {n_max} for a {n}-sample frame")
        elif n <= self.lpc_order + (self.ma_order + 1 if self.ma_order else 0):  # fit_arma_frames' limits
            raise ValueError(
                f"a {n}-sample frame is too short for lpc_order {self.lpc_order} and ma_order "
                f"{self.ma_order}: it must exceed p, or p + q + 1 when q > 0"
            )
        # zero is valid: a zero process std makes those entries known; Q holds the squares
        if not all(0 <= s and s * s <= sys.float_info.max for s in (self.freq_process_std, self.bw_process_std)):
            raise ValueError("process stds must be non-negative with a finite square")
        for values, cols in self._initial_overrides():
            if values is not None and len(values) != cols.stop - cols.start:
                raise ValueError("initial value override has wrong length")

    def _initial_overrides(self):
        """Each ``initial_*`` override with the state columns it sets."""
        overrides = (
            self.initial_formant_freqs,
            self.initial_formant_bws,
            self.initial_antiformant_freqs,
            self.initial_antiformant_bws,
        )
        return zip(overrides, state_columns(self.n_formants, self.n_antiformants))

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """Config from a JSON object; each value must have its field's type."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            if not _fits(value, defaults[name]):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def make_tracker_params(config: RunConfig, hop_s: float) -> TrackerParams:
    config.validate()
    params = default_params(
        config.n_formants,
        config.n_antiformants,
        config.target_sample_rate_hz,
        config.n_cepstra,
        hop_s=hop_s,
        freq_process_std=config.freq_process_std,
        bw_process_std=config.bw_process_std,
    )
    mu0 = params.mu0.copy()
    for values, cols in config._initial_overrides():
        if values is not None:
            mu0[cols] = values
    return replace(params, mu0=mu0)


def build_observations(frames_emphasized: np.ndarray, config: RunConfig, speech: np.ndarray) -> np.ndarray:
    """Per-frame cepstral observation matrix (T, N).

    Silent frames get zero rows; the tracker never uses them because the
    Kalman gain is masked there.  The pre-emphasis response and residual
    source coloration stay in the observations, as the observation noise
    covariance is sized to absorb them.

    The real-cepstrum route takes all speech frames at once.  The
    parametric route gathers the speech frames a block of rows at a time
    (``frontend._BLOCK_BYTES``), with one ``fit_arma_frames`` call (with
    ``ma_order = 0`` the AR fit) and one ``arma_cepstra`` call, which checks
    that every fit is minimum phase, per block; both give each row the bits
    of that row's own call.
    """
    n_frames = frames_emphasized.shape[0]
    obs = np.zeros((n_frames, config.n_cepstra))
    rows = np.flatnonzero(np.asarray(speech, dtype=bool) & np.any(frames_emphasized, axis=1))
    if config.observation_source == "real_cepstrum":
        obs[rows] = _real_cepstra(frames_emphasized, rows, config.n_cepstra)
    else:
        for block in _row_blocks(rows.size, frames_emphasized[:1].nbytes):
            picked = rows[block]
            run = slice(picked[0], picked[-1] + 1)  # consecutive rows are fitted from a view
            fit = frames_emphasized[run] if run.stop - run.start == picked.size else frames_emphasized[picked]
            ar, ma, *_ = fit_arma_frames(fit, config.lpc_order, config.ma_order)
            obs[picked] = arma_cepstra(ar, ma, config.n_cepstra)
    if not np.all(np.isfinite(obs)):
        raise ValueError("non-finite cepstral coefficients")
    return obs


def track_waveform(
    w: Waveform,
    config: RunConfig,
    labels: list[LabelInterval] | None = None,
    activation: TrackActivation | None = None,
) -> TrackResult:
    """Run the full tracking pipeline on a waveform.

    Resamples to the analysis rate, windows and pre-emphasizes frames, fits
    per-frame models, converts them to cepstral observations, and tracks
    with the extended Kalman filter (plus the smoothing pass in smooth
    mode) under the random-walk dynamics of ``default_params``.  In filter
    mode each frame's estimate depends only on that frame and earlier ones,
    given the activity mask (fixed by ``labels``; ``detect_activity``'s
    rule scales its threshold to the loudest frame of the whole utterance).
    The config, the tracker parameters and the activation's length and
    widths are checked before the front end runs.

    Memory: the front end streams.  The resampler and the framer hand out
    windowed frames a block of rows at a time (``frontend._frame_blocks``),
    and the run goes over them twice: pass 1, skipped when ``labels`` are
    given, squares each block in place for the per-frame RMS of the
    activity mask; pass 2 pre-emphasizes each block in place and writes
    the cepstra of its speech rows into the (T, N) observations.  So
    neither the resampled signal nor a (T, L) frame matrix ever exists;
    the run holds the observations, the tracker's result and a few
    blocks.  The price is resampling twice when activity is detected.
    """
    config.validate()
    fs = config.target_sample_rate_hz
    n_samples = _resampled_length(w, fs)
    frame_length, hop = frame_length_and_hop(config.frame_ms, config.overlap, fs)
    n_frames = _frame_count(n_samples, frame_length, hop)
    params = make_tracker_params(config, hop / fs)
    _checked_activation(activation, n_frames, params)

    def frame_blocks():  # one pass over the windowed frames
        return _frame_blocks(_resampled(w, fs), n_frames, frame_length, hop, config.window)

    if labels is not None:
        mask = activity_from_labels(
            labels,
            n_samples=n_samples,
            frame_length=frame_length,
            hop=hop,
            n_frames=n_frames,
            sample_scale=fs / w.sample_rate_hz,
        )
    else:
        mask = _activity_of_blocks(frame_blocks(), n_frames, config.energy_threshold_db)

    obs = np.empty((n_frames, config.n_cepstra))
    for rows, block in frame_blocks():
        obs[rows] = build_observations(preemphasize(block, config.gamma, out=block), config, mask[rows])
    del block  # the framer's block array, before the tracker's result exists
    run = eks_smooth if config.mode == "smooth" else ekf_filter
    return run(obs, params, mask, activation)
