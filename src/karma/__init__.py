"""Kalman tracking of formant and antiformant frequencies and bandwidths.

Per-frame ARMA (or nonparametric) cepstral coefficients serve as
observations for an extended Kalman filter/smoother over resonance
frequency and bandwidth states, yielding point estimates with
uncertainties.  A synthesis harness with exact ground truth and a particle
filter oracle support verification.
"""

from .arma import ArmaModel, enforce_minimum_phase, estimate_ar, estimate_arma
from .cepstrum import (
    CepstralVector,
    ResonanceState,
    arma_to_cepstrum,
    cepstrum_jacobian,
    real_cepstrum,
    state_to_cepstrum,
)
from .evaluation import RmseReport, read_tracks, read_vtr_matrix, rmse, write_tracks
from .frontend import (
    ActivityMask,
    FrameSequence,
    Waveform,
    detect_activity,
    preemphasize,
    read_wav,
    resample,
    window_frames,
    write_wav,
)
from .particle import ekf_pf_benchmark, pf_track
from .pipeline import RunConfig, track_waveform
from .synthesis import (
    TrajectorySpec,
    nasal_utterance_spec,
    random_trajectory,
    resonator_cascade,
    rosenberg_source,
    synthesize,
)
from .tracker import (
    TrackActivation,
    TrackerParams,
    TrackResult,
    default_params,
    ekf_filter,
    eks_smooth,
    estimate_transition,
)

__version__ = "0.1.0"
