"""Extended Kalman filtering and smoothing over resonance states.

The hidden state stacks formant and antiformant frequency/bandwidth pairs,
evolving as x_{t+1} = F x_t + w_t with cepstral observations
y_t = h(x_t) + v_t.  The filter follows the standard extended-Kalman
recursion with the exact nonlinear h in the innovation and its analytic
Jacobian in the covariance update; the smoother is a fixed-interval
Rauch-Tung-Striebel backward pass over the stored filtered moments.

Silent frames coast: the Kalman gain is premultiplied by a diagonal 0/1
mask so the update degenerates to pure prediction and uncertainty grows.
Individual tracks may be deactivated per frame; an inactive track is an
unobserved part of the state: it is excluded from the observation model,
decoupled from the active block and coasts under F and Q, and when it
reappears it resumes from its coasted mean and variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cepstrum import (
    CepstralVector,
    _pole_powers,
    _powers_cepstrum,
    _powers_jacobian,
    _resonance_columns,
)
from .frontend import ActivityMask

__all__ = [
    "TrackerParams",
    "TrackActivation",
    "TrackResult",
    "CepstralObservation",
    "LinearObservation",
    "ekf_filter",
    "eks_smooth",
    "estimate_transition",
    "default_params",
]


@dataclass(frozen=True)
class TrackerParams:
    """State-space parameter set (F, Q, R, mu0, Sigma0) plus track geometry.

    An entry known exactly (a bandwidth supplied from outside, say) has its
    value in ``mu0``, zero rows and columns in ``Sigma0`` and ``Q`` and an
    identity row in ``F``; the filter and smoother then hold it fixed.
    """

    F: np.ndarray
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
        for name in ("F", "Q", "R", "Sigma0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float).ravel())
        dim = self.state_dim
        for name in ("F", "Q", "Sigma0"):
            mat = getattr(self, name)
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}x{dim}")
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


class CepstralObservation:
    """Observation model mapping a state vector to N cepstral coefficients.

    Inactive tracks are dropped from the sum and their Jacobian columns are
    zero, which is how the tracker omits a track from the state.
    """

    def __init__(self, n_formants: int, n_antiformants: int, n_cepstra: int, sample_rate_hz: float):
        self.n_formants = n_formants
        self.n_antiformants = n_antiformants
        self.n_cepstra = n_cepstra
        self.sample_rate_hz = sample_rate_hz
        self._freq_cols, self._bw_cols, self._signs = _resonance_columns(
            n_formants, n_antiformants
        )

    def _active_signs(self, active_f, active_a):
        """Sign of each resonance's cepstral term: +1 formant, -1 antiformant, 0 inactive."""
        if active_f is None and active_a is None:
            return self._signs
        i, j = self.n_formants, self.n_antiformants
        keep = np.concatenate([
            np.ones(i, dtype=bool) if active_f is None else active_f,
            np.ones(j, dtype=bool) if active_a is None else active_a,
        ])
        return self._signs * keep

    def value(self, x: np.ndarray, active_f=None, active_a=None) -> np.ndarray:
        """h(x) for a state (dim,) or a stack of states (..., dim) -> (..., N)."""
        powers = _pole_powers(
            x[..., self._freq_cols], x[..., self._bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        return _powers_cepstrum(powers, self._active_signs(active_f, active_a))

    def linearize(self, x: np.ndarray, active_f=None, active_a=None):
        """h(x) (N,) and its Jacobian (N, dim) at one state, from one set of pole powers."""
        signs = self._active_signs(active_f, active_a)
        powers = _pole_powers(
            x[self._freq_cols], x[self._bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        H = _powers_jacobian(powers, signs, self.sample_rate_hz, self._freq_cols, self._bw_cols)
        return _powers_cepstrum(powers, signs), H

    def state_bounds(self):
        """Clamp bounds keeping frequencies inside (0, fs/2) and bandwidths >= 1 Hz.

        The frequency margins stay away from 0 and fs/2, where the
        observation gradient vanishes and a clamped track could never
        recover.
        """
        i, j = self.n_formants, self.n_antiformants
        f_lo = 0.005 * self.sample_rate_hz
        f_hi = 0.495 * self.sample_rate_hz
        lo = np.concatenate([np.full(i, f_lo), np.full(i, 1.0), np.full(j, f_lo), np.full(j, 1.0)])
        hi = np.concatenate(
            [np.full(i, f_hi), np.full(i, np.inf), np.full(j, f_hi), np.full(j, np.inf)]
        )
        return lo, hi


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


def _as_matrix(obs) -> np.ndarray:
    """Accept a (T, N) array or a sequence of CepstralVector."""
    if isinstance(obs, np.ndarray):
        return np.atleast_2d(np.asarray(obs, dtype=float))
    rows = [o.coeffs if isinstance(o, CepstralVector) else np.asarray(o, float) for o in obs]
    return np.vstack(rows)


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
    """Solve x S = rhs robustly, regularizing a singular innovation covariance."""
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
    y = _as_matrix(obs)
    n_frames = y.shape[0]
    if n_frames < 1:
        raise ValueError("need at least one observation frame")
    speech = _speech_flags(mask, n_frames)
    if activation is None:
        activation = TrackActivation.all_active(n_frames, params.n_formants, params.n_antiformants)
    if len(activation) != n_frames:
        raise ValueError("activation length does not match observation count")
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
    blocked transition and process noise are rebuilt.  A returning entry
    keeps the moments it coasted to.
    """
    bounds = obs_model.state_bounds()
    flags = _entry_flags(activation)
    rebuild = _flag_changes(flags)
    update = speech & flags.any(axis=1)

    m, P = params.mu0, params.Sigma0
    for t, g in enumerate(flags):
        if rebuild[t]:
            P = _blocked(P, g)
            F = _blocked(params.F, g)
            Q = _blocked(params.Q, g)
            act_f, act_a = activation.formants[t], activation.antiformants[t]
            inactive = ~g if not g.all() else None
        m = F @ m
        P = _symmetrize(F @ P @ F.T + Q)
        m = _clamp(m, bounds)
        m_pred, P_pred = m, P

        if update[t]:
            h_val, H = obs_model.linearize(m, act_f, act_a)
            S = _symmetrize(H @ P @ H.T + params.R)
            PHt = P @ H.T
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

    ``obs`` is a (T, N) array or sequence of ``CepstralVector``.  ``mask``
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
    change, the backward pass decouples the entering covariance and rebuilds
    the blocked transition from the flags, as the forward pass did;
    elsewhere the filtered moments enter the next frame unchanged.  An
    entry whose predicted variance is exactly zero is known (see
    ``ekf_filter``) and gets a zero smoother gain, so it keeps its value
    and zero variance.
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
    # gain solve nonsingular and still gives that entry a zero gain
    frames, known = np.nonzero(np.einsum("tii->ti", P_pred) == 0.0)
    P_pred[frames, known, known] = 1.0

    bounds = obs_model.state_bounds()
    flags = _entry_flags(activation)
    rebuild = _flag_changes(flags)
    F = _blocked(params.F, flags[-1])
    # m_s/P_s hold the filtered moments until the backward pass reaches them
    for t in range(n_frames - 1, 0, -1):
        m_prev, P_prev = m_s[t - 1], P_s[t - 1]
        if rebuild[t]:
            P_prev = _blocked(P_prev, flags[t])
        S = _solve_innovation(P_pred[t], P_prev @ F.T, "eks_smooth")
        m_s[t - 1] = m_prev + S @ (m_s[t] - m_pred[t])
        P_s[t - 1] = _symmetrize(P_prev + S @ (P_s[t] - P_pred[t]) @ S.T)
        m_s[t - 1] = _clamp(m_s[t - 1], bounds)
        if rebuild[t]:
            F = _blocked(params.F, flags[t - 1])
    return _make_result(m_s, P_s, speech, activation, params)


def estimate_transition(
    first_pass_tracks: np.ndarray,
    speech=None,
    max_spectral_radius: float = 0.999,
) -> np.ndarray:
    """Single-lag least-squares fit of x_{t+1} ~ F x_t over speech frames.

    Falls back to the identity (with a warning) when the regressors are rank
    deficient; the spectral radius is clipped by uniform scaling.
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
    if radius > max_spectral_radius:
        F = F * (max_spectral_radius / radius)
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
    1000 Hz with 80 Hz bandwidths.  Sigma0 = Q and F = identity: every
    entry is a random walk.
    """
    i, j = n_formants, n_antiformants
    dim = 2 * i + 2 * j
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
        F=np.eye(dim),
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
