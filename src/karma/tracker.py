"""Extended Kalman filtering and smoothing over resonance states.

The hidden state stacks formant and antiformant frequency/bandwidth pairs,
evolving as a random walk x_{t+1} = x_t + w_t with cepstral observations
y_t = h(x_t) + v_t.  The filter follows the standard extended-Kalman
recursion with the exact nonlinear h in the innovation and its analytic
Jacobian in the covariance update; the smoother is a fixed-interval
Rauch-Tung-Striebel backward pass over the stored filtered moments.

Both linear systems, the innovation covariance S = H P Hᵀ + R of the
filter gain and the predicted covariance of the smoother gain, are
symmetric positive definite, so each is solved by one Cholesky
factorisation.  Only a system that Cholesky refuses falls back to an LU
solve, and only one that LU cannot solve either is regularised with a
small diagonal bump (and a warning).

Silent frames coast: the Kalman gain is premultiplied by a diagonal 0/1
mask so the update degenerates to pure prediction and uncertainty grows.
Individual tracks may be deactivated per frame; an inactive track is an
unobserved part of the state: it is excluded from the observation model,
decoupled from the active block and coasts under Q, and when it
reappears it resumes from its coasted mean and variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .cepstrum import CepstralObservation
from .frontend import ActivityMask

__all__ = [
    "TrackerParams",
    "TrackActivation",
    "TrackResult",
    "LinearObservation",
    "ekf_filter",
    "eks_smooth",
    "estimate_transition",
    "default_params",
]


@dataclass(frozen=True)
class TrackerParams:
    """State-space parameter set (Q, R, mu0, Sigma0) plus track geometry.

    Every entry is a random walk.  ``Q`` and ``Sigma0`` are symmetrised on
    construction (a no-op for exactly symmetric input), so every predicted
    covariance P + Q is exactly symmetric.  An entry known exactly (a
    bandwidth supplied from outside, say) has its value in ``mu0`` and zero
    rows and columns in ``Sigma0`` and ``Q``; the filter and smoother then
    hold it fixed.
    """

    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray
    n_formants: int
    n_antiformants: int
    n_cepstra: int
    sample_rate_hz: float
    hop_s: float = 0.01

    def __post_init__(self):
        for name in ("Q", "R", "Sigma0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float).ravel())
        dim = self.state_dim
        for name in ("Q", "Sigma0"):
            mat = getattr(self, name)
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}x{dim}")
            object.__setattr__(self, name, _symmetrize(mat))
        if self.mu0.size != dim:
            raise ValueError("mu0 length inconsistent with track counts")
        if self.R.shape != (self.n_cepstra, self.n_cepstra):
            raise ValueError("R must be N x N")

    @property
    def state_dim(self) -> int:
        return 2 * self.n_formants + 2 * self.n_antiformants


@dataclass(frozen=True)
class TrackActivation:
    """Per-frame presence flags for each formant and antiformant track."""

    formants: np.ndarray  # (T, I) bool
    antiformants: np.ndarray  # (T, J) bool

    def __post_init__(self):
        object.__setattr__(self, "formants", np.asarray(self.formants, dtype=bool))
        object.__setattr__(self, "antiformants", np.asarray(self.antiformants, dtype=bool))
        if self.formants.shape[0] != self.antiformants.shape[0]:
            raise ValueError("formant/antiformant flag lengths differ")

    @classmethod
    def all_active(cls, n_frames: int, n_formants: int, n_antiformants: int):
        return cls(
            np.ones((n_frames, n_formants), dtype=bool),
            np.ones((n_frames, n_antiformants), dtype=bool),
        )

    def __len__(self) -> int:
        return self.formants.shape[0]


@dataclass(frozen=True)
class TrackResult:
    """Per-frame posterior means and covariances for every tracked parameter."""

    means: np.ndarray  # (T, dim)
    covariances: np.ndarray  # (T, dim, dim)
    speech: np.ndarray  # (T,) bool
    formant_active: np.ndarray  # (T, I) bool
    antiformant_active: np.ndarray  # (T, J) bool
    n_formants: int
    n_antiformants: int
    n_cepstra: int
    sample_rate_hz: float
    hop_s: float

    @property
    def n_frames(self) -> int:
        return self.means.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.hop_s

    @property
    def formant_freqs(self) -> np.ndarray:
        return self.means[:, : self.n_formants]

    @property
    def formant_bws(self) -> np.ndarray:
        return self.means[:, self.n_formants : 2 * self.n_formants]

    @property
    def antiformant_freqs(self) -> np.ndarray:
        i = 2 * self.n_formants
        return self.means[:, i : i + self.n_antiformants]

    @property
    def antiformant_bws(self) -> np.ndarray:
        i = 2 * self.n_formants + self.n_antiformants
        return self.means[:, i : i + self.n_antiformants]

    @property
    def variances(self) -> np.ndarray:
        """Posterior variances (diagonal of each covariance), shape (T, dim)."""
        return np.einsum("tii->ti", self.covariances)


class LinearObservation:
    """Fixed linear observation y = H x, mainly for surrogate tests."""

    def __init__(self, H: np.ndarray):
        self.H = np.asarray(H, dtype=float)

    def value(self, x, active_f=None, active_a=None):
        return x @ self.H.T

    def linearize(self, x, active_f=None, active_a=None):
        return x @ self.H.T, self.H

    def state_bounds(self):
        return None


def _speech_flags(mask, n_frames: int) -> np.ndarray:
    if mask is None:
        return np.ones(n_frames, dtype=bool)
    flags = mask.flags if isinstance(mask, ActivityMask) else np.asarray(mask, dtype=bool)
    if flags.size != n_frames:
        raise ValueError("activity mask length does not match observation count")
    return flags


def _entry_flags(activation: TrackActivation) -> np.ndarray:
    """Per-frame activity of every state entry, shape (T, dim)."""
    f, a = activation.formants, activation.antiformants
    return np.concatenate([f, f, a, a], axis=1)


def _flag_changes(flags: np.ndarray) -> np.ndarray:
    """Frames whose entry flags differ from the previous frame's; frame 0 always counts."""
    changed = np.ones(len(flags), dtype=bool)
    changed[1:] = np.any(flags[1:] != flags[:-1], axis=1)
    return changed


def _blocked(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``mat`` with the couplings between active and inactive entries zeroed."""
    return np.where(g[:, None] == g, mat, 0.0)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _solve_innovation(S: np.ndarray, rhs: np.ndarray, warn_label: str) -> np.ndarray:
    """Solve x S = rhs for a symmetric S, regularizing a singular one.

    The first try is one Cholesky solve (LAPACK ``dposv``), which reads
    only S's upper triangle.  Only when S is not positive definite or the
    result is not finite (its sum is not) does the solve fall back, first
    to an LU solve of S as given and, if that fails too, to an LU solve of
    S plus a small diagonal bump, with a "singular innovation covariance"
    warning.  A zero row of ``rhs`` gives an exactly zero row of x on every
    route.
    """
    _, sol, info = dposv(S, rhs.T)
    if info == 0 and math.isfinite(sol.sum()):
        return sol.T
    try:
        sol = np.linalg.solve(S.T, rhs.T).T
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    warnings.warn(f"singular innovation covariance in {warn_label}; regularizing")
    bump = 1e-8 * max(np.trace(S), 1.0) / S.shape[0]
    S = S + bump * np.eye(S.shape[0])
    return np.linalg.solve(S.T, rhs.T).T


def _resolve_setup(obs, params, mask, activation, obs_model):
    y = np.atleast_2d(np.asarray(obs, dtype=float))
    n_frames = y.shape[0]
    if n_frames < 1:
        raise ValueError("need at least one observation frame")
    speech = _speech_flags(mask, n_frames)
    if activation is None:
        activation = TrackActivation.all_active(n_frames, params.n_formants, params.n_antiformants)
    if len(activation) != n_frames:
        raise ValueError("activation length does not match observation count")
    widths = activation.formants.shape[1], activation.antiformants.shape[1]
    if widths != (params.n_formants, params.n_antiformants):
        raise ValueError(
            f"activation has {widths[0]} formant and {widths[1]} antiformant columns; "
            f"params track {params.n_formants} formants and {params.n_antiformants} antiformants"
        )
    if obs_model is None:
        obs_model = CepstralObservation(
            params.n_formants, params.n_antiformants, params.n_cepstra, params.sample_rate_hz
        )
    return y, n_frames, speech, activation, obs_model


def _clamp(vec, bounds):
    if bounds is None:
        return vec
    lo, hi = bounds
    return np.minimum(np.maximum(vec, lo), hi)


def _forward(y, params, speech, activation, obs_model):
    """Forward EKF recursion, yielding ``(m_pred, P_pred, m_filt, P_filt)`` per frame.

    Keeps no history; the yielded arrays are never modified afterwards.
    At frames whose activation flags change, and only there, the entering
    covariance is decoupled between active and inactive entries and the
    blocked process noise is rebuilt.  A returning entry keeps the moments
    it coasted to.  The predict keeps the mean (clamped to the state
    bounds) and adds Q to P; P stays exactly symmetric, since Q is and
    every update ends symmetrised.
    """
    bounds = obs_model.state_bounds()
    flags = _entry_flags(activation)
    rebuild = _flag_changes(flags)
    update = speech & flags.any(axis=1)

    m, P = params.mu0, params.Sigma0
    for t, g in enumerate(flags):
        if rebuild[t]:
            P = _blocked(P, g)
            Q = _blocked(params.Q, g)
            act_f, act_a = activation.formants[t], activation.antiformants[t]
            inactive = ~g if not g.all() else None
        P = P + Q
        m = _clamp(m, bounds)
        m_pred, P_pred = m, P

        if update[t]:
            h_val, H = obs_model.linearize(m, act_f, act_a)
            PHt = P @ H.T
            S = H @ PHt + params.R
            if inactive is not None:
                PHt[inactive, :] = 0.0
            K = _solve_innovation(S, PHt, "ekf_filter")
            m = m + K @ (y[t] - h_val)
            P = _symmetrize(P - K @ H @ P)
            m = _clamp(m, bounds)

        yield m_pred, P_pred, m, P


def _make_result(means, covs, speech, activation, params) -> TrackResult:
    return TrackResult(
        means=means,
        covariances=covs,
        speech=speech.copy(),
        formant_active=activation.formants.copy(),
        antiformant_active=activation.antiformants.copy(),
        n_formants=params.n_formants,
        n_antiformants=params.n_antiformants,
        n_cepstra=params.n_cepstra,
        sample_rate_hz=params.sample_rate_hz,
        hop_s=params.hop_s,
    )


def ekf_filter(
    obs,
    params: TrackerParams,
    mask=None,
    activation: TrackActivation | None = None,
    obs_model=None,
) -> TrackResult:
    """Forward extended Kalman filter over cepstral observations.

    ``obs`` is a (T, N) array of cepstral observations.  ``mask``
    marks speech frames; silent frames update nothing but still propagate.
    An entry known exactly (see ``TrackerParams``) keeps zero variance and a
    zero gain row, so it holds its ``mu0`` value on every frame.
    """
    y, _, speech, activation, obs_model = _resolve_setup(obs, params, mask, activation, obs_model)
    means = np.empty((len(y), params.state_dim))
    covs = np.empty((len(y), params.state_dim, params.state_dim))
    steps = _forward(y, params, speech, activation, obs_model)
    for t, (_, _, m, P) in enumerate(steps):
        means[t], covs[t] = m, P
    return _make_result(means, covs, speech, activation, params)


def eks_smooth(
    obs,
    params: TrackerParams,
    mask=None,
    activation: TrackActivation | None = None,
    obs_model=None,
) -> TrackResult:
    """Fixed-interval smoother: forward filter plus RTS backward pass.

    Stores the predicted and filtered moments.  Where the activation flags
    change, the backward pass decouples the entering covariance, as the
    forward pass did; elsewhere the filtered moments enter the next frame
    unchanged.  Under the random walk the gain's right-hand side is that
    entering covariance itself.  An entry whose predicted variance is
    exactly zero is known (see ``ekf_filter``) and gets a zero smoother
    gain, so it keeps its value and zero variance.
    """
    y, n_frames, speech, activation, obs_model = _resolve_setup(
        obs, params, mask, activation, obs_model
    )
    dim = params.state_dim
    m_pred = np.empty((n_frames, dim))
    P_pred = np.empty((n_frames, dim, dim))
    m_s = np.empty((n_frames, dim))
    P_s = np.empty((n_frames, dim, dim))
    steps = _forward(y, params, speech, activation, obs_model)
    for t, (m, P, m_f, P_f) in enumerate(steps):
        m_pred[t], P_pred[t], m_s[t], P_s[t] = m, P, m_f, P_f

    # a known entry has zero predicted variance; a unit diagonal keeps the
    # gain solve positive definite and still gives that entry a zero gain
    frames, known = np.nonzero(np.einsum("tii->ti", P_pred) == 0.0)
    P_pred[frames, known, known] = 1.0

    bounds = obs_model.state_bounds()
    flags = _entry_flags(activation)
    rebuild = _flag_changes(flags)
    # m_s/P_s hold the filtered moments until the backward pass reaches them
    for t in range(n_frames - 1, 0, -1):
        m_prev, P_prev = m_s[t - 1], P_s[t - 1]
        if rebuild[t]:
            P_prev = _blocked(P_prev, flags[t])
        S = _solve_innovation(P_pred[t], P_prev, "eks_smooth")
        m_s[t - 1] = m_prev + S @ (m_s[t] - m_pred[t])
        P_s[t - 1] = _symmetrize(P_prev + S @ (P_s[t] - P_pred[t]) @ S.T)
        m_s[t - 1] = _clamp(m_s[t - 1], bounds)
    return _make_result(m_s, P_s, speech, activation, params)


_MAX_SPECTRAL_RADIUS = 0.999  # estimate_transition scales F down to this


def estimate_transition(first_pass_tracks: np.ndarray, speech=None) -> np.ndarray:
    """Single-lag least-squares fit of x_{t+1} ~ F x_t over speech frames.

    Falls back to the identity (with a warning) when the regressors are rank
    deficient; a spectral radius above 0.999 is clipped by uniform scaling.
    """
    tracks = np.asarray(first_pass_tracks, dtype=float)
    if tracks.ndim != 2:
        raise ValueError("tracks must be (frames, states)")
    n_frames, dim = tracks.shape
    ok = np.all(np.isfinite(tracks), axis=1)
    if speech is not None:
        ok &= _speech_flags(speech, n_frames)
    pairs = np.flatnonzero(ok[:-1] & ok[1:])
    if pairs.size < 2 * dim:
        raise ValueError("need at least 2*states usable frame pairs")
    X = tracks[pairs]
    Y = tracks[pairs + 1]
    sol, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < dim:
        warnings.warn("rank-deficient regressors; falling back to identity transition")
        return np.eye(dim)
    F = sol.T
    radius = np.abs(np.linalg.eigvals(F)).max()
    if radius > _MAX_SPECTRAL_RADIUS:
        F = F * (_MAX_SPECTRAL_RADIUS / radius)
    return F


def default_params(
    n_formants: int,
    n_antiformants: int,
    sample_rate_hz: float,
    n_cepstra: int,
    hop_s: float = 0.01,
    freq_process_std: float = 320.0,
    bw_process_std: float = 100.0,
) -> TrackerParams:
    """Default state-space parameters.

    Process noise uses per-frame standard deviations of 320 Hz for center
    frequencies and 100 Hz for bandwidths; the observation covariance is
    diagonal with R_nn = 1/n.  Initial formant means start at 500 Hz and
    step by 1000 Hz (bandwidths 80, 120, 160, ...); antiformants start at
    1000 Hz with 80 Hz bandwidths.  Sigma0 = Q.
    """
    i, j = n_formants, n_antiformants
    q_diag = np.concatenate(
        [
            np.full(i, freq_process_std**2),
            np.full(i, bw_process_std**2),
            np.full(j, freq_process_std**2),
            np.full(j, bw_process_std**2),
        ]
    )
    Q = np.diag(q_diag)
    R = np.diag(1.0 / np.arange(1, n_cepstra + 1, dtype=float))
    ceiling = 0.48 * sample_rate_hz
    mu0 = np.concatenate(
        [
            np.minimum(500.0 + 1000.0 * np.arange(i), ceiling),
            80.0 + 40.0 * np.arange(i),
            np.minimum(1000.0 + 1000.0 * np.arange(j), ceiling),
            np.full(j, 80.0),
        ]
    )
    return TrackerParams(
        Q=Q,
        R=R,
        mu0=mu0,
        Sigma0=Q.copy(),
        n_formants=i,
        n_antiformants=j,
        n_cepstra=n_cepstra,
        sample_rate_hz=sample_rate_hz,
        hop_s=hop_s,
    )
