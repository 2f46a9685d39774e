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
from dataclasses import dataclass, replace

import numpy as np

from .arma import fit_arma_frames
from .arma import estimate_ar, estimate_arma  # noqa: F401  (looked up here by bench/tracing.py)
from .cepstrum import _real_cepstra, arma_cepstra
from .cepstrum import arma_to_cepstrum, real_cepstrum  # noqa: F401  (looked up here by bench/tracing.py)
from .frontend import (
    _WINDOWS,
    LabelInterval,
    Waveform,
    activity_from_labels,
    detect_activity,
    preemphasize,
    resample,
    window_frames,
)
from .tracker import TrackActivation, TrackerParams, default_params, ekf_filter, eks_smooth
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
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be positive")
        if self.n_formants < 0 or self.n_antiformants < 0:
            raise ValueError("track counts must be non-negative")
        if self.n_formants + self.n_antiformants == 0:
            raise ValueError("need at least one formant or antiformant to track")
        if self.n_cepstra < max(self.lpc_order, self.ma_order):
            raise ValueError("n_cepstra must be at least max(lpc_order, ma_order)")
        if self.lpc_order < 2 * self.n_formants:
            raise ValueError("lpc_order must be at least 2 * n_formants")
        if self.observation_source == "arma_cepstrum" and self.ma_order < 2 * self.n_antiformants:
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
        # window_frames rounds the frame to whole samples: round(x) >= 1 iff x > 0.5
        if not self.frame_ms * 1e-3 * self.target_sample_rate_hz > 0.5:
            raise ValueError("frame_ms must span at least one sample at the analysis rate")
        # zero is valid: a zero process std makes those entries known
        if not (self.freq_process_std >= 0 and self.bw_process_std >= 0):
            raise ValueError("process stds must be non-negative")
        i, j = self.n_formants, self.n_antiformants
        for values, n in (
            (self.initial_formant_freqs, i),
            (self.initial_formant_bws, i),
            (self.initial_antiformant_freqs, j),
            (self.initial_antiformant_bws, j),
        ):
            if values is not None and len(values) != n:
                raise ValueError("initial value override has wrong length")

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
    i, j = config.n_formants, config.n_antiformants
    overrides = (
        (config.initial_formant_freqs, 0, i),
        (config.initial_formant_bws, i, 2 * i),
        (config.initial_antiformant_freqs, 2 * i, 2 * i + j),
        (config.initial_antiformant_bws, 2 * i + j, 2 * i + 2 * j),
    )
    for values, lo, hi in overrides:
        if values is not None:
            mu0[lo:hi] = values
    return replace(params, mu0=mu0)


def build_observations(frames_emphasized: np.ndarray, config: RunConfig, speech: np.ndarray) -> np.ndarray:
    """Per-frame cepstral observation matrix (T, N).

    Silent frames get zero rows; the tracker never uses them because the
    Kalman gain is masked there.  The pre-emphasis response and residual
    source coloration stay in the observations, as the observation noise
    covariance is sized to absorb them.

    Each route takes all speech frames at once.  The parametric route is
    one ``fit_arma_frames`` call (with ``ma_order = 0`` the AR fit) and one
    ``arma_cepstra`` call, which checks that every fit is minimum phase.
    """
    n_frames = frames_emphasized.shape[0]
    obs = np.zeros((n_frames, config.n_cepstra))
    rows = np.flatnonzero(np.asarray(speech, dtype=bool) & np.any(frames_emphasized, axis=1))
    if config.observation_source == "real_cepstrum":
        obs[rows] = _real_cepstra(frames_emphasized, rows, config.n_cepstra)
    else:
        ar, ma, *_ = fit_arma_frames(frames_emphasized[rows], config.lpc_order, config.ma_order)
        obs[rows] = arma_cepstra(ar, ma, config.n_cepstra)
    if not np.all(np.isfinite(obs)):
        raise ValueError("non-finite cepstral coefficients")
    return obs


def track_waveform(
    w: Waveform,
    config: RunConfig,
    labels: list[LabelInterval] | None = None,
    activation: TrackActivation | None = None,
    return_details: bool = False,
):
    """Run the full tracking pipeline on a waveform.

    Resamples to the analysis rate, windows and pre-emphasizes frames, fits
    per-frame models, converts them to cepstral observations, and tracks
    with the extended Kalman filter (plus the smoothing pass in smooth
    mode) under the random-walk dynamics of ``default_params``.  In filter
    mode each frame's estimate depends only on that frame and earlier ones,
    given the activity mask (fixed by ``labels``; ``detect_activity``
    scales its threshold to the loudest frame of the whole utterance).
    """
    config.validate()
    rate_ratio = config.target_sample_rate_hz / w.sample_rate_hz
    if rate_ratio != 1.0:
        w = resample(w, config.target_sample_rate_hz)
    frames = window_frames(w, config.frame_ms, config.overlap, config.window)
    emphasized = preemphasize(frames.frames, config.gamma)

    if labels is not None:
        mask = activity_from_labels(
            labels,
            n_samples=w.samples.size,
            frame_length=frames.frame_length,
            hop=frames.hop,
            n_frames=frames.n_frames,
            sample_scale=rate_ratio,
        )
    else:
        mask = detect_activity(frames, config.energy_threshold_db)

    obs = build_observations(emphasized, config, mask.flags)
    params = make_tracker_params(config, frames.hop_s)
    run = eks_smooth if config.mode == "smooth" else ekf_filter
    result = run(obs, params, mask, activation)
    if return_details:
        return result, mask, obs, params
    return result
