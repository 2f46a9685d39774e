"""Extended Kalman filtering and smoothing over resonance states.

The hidden state holds each formant's and antiformant's frequency and
bandwidth, in the blocks of ``cepstrum.state_columns``, evolving as a
random walk x_{t+1} = x_t + w_t with cepstral observations
y_t = h(x_t) + v_t.  The filter follows the standard extended-Kalman
recursion with the exact nonlinear h in the innovation and its analytic
Jacobian in the covariance update; the smoother is a fixed-interval
Rauch-Tung-Striebel backward pass run in place over the filter's output.
The backward pass has no loop over frames: each block of frames is an
associative scan over the smoother's corrections to the filtered means
(``eks_smooth``), which agrees with the sequential rule to rounding
(1e-9 relative in the tests).  The clamp to the state bounds is not
affine, so a block whose scanned means leave the bounds takes its means
from the sequential clamped rule.

Each step has one function, shared by the filter, the smoother and the
particle filter: ``_blocked`` decouples active from inactive entries,
``_clamp`` clamps to the state bounds, and ``_whitener`` gives W = L⁻¹
for R's Cholesky factor L (R = L Lᵀ), which whitens the filter's update
(one d x d solve per frame, see ``_filtered``) and the particle filter's
log-weights.  The smoother solves its gains a block of frames at a time.

Both passes call LAPACK's gesv gufunc (``numpy.linalg._umath_linalg.solve``,
so the package needs nothing beyond numpy) directly, with the signature
``np.linalg.solve`` gives it, so the bits are the same.  What that
wrapper checks, at more cost than a small solve, holds by construction:
every system is float64 and square, and ``TrackerParams`` makes every one
regular, so neither pass has a fallback solve.

Silent frames coast: they skip the update, so the step is pure
prediction and uncertainty grows.  Individual tracks may be deactivated
per frame; an inactive track is an unobserved part of the state: the
filter zeroes its Jacobian columns, whatever the observation model
returns, so it is decoupled from the active block and coasts under Q,
and when it reappears it resumes from its coasted mean and variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.linalg import _umath_linalg

from .cepstrum import CepstralObservation, state_columns
from .frontend import _row_blocks

__all__ = [
    "TrackerParams",
    "TrackActivation",
    "TrackResult",
    "ekf_filter",
    "eks_smooth",
    "estimate_transition",
    "default_params",
]


# The largest side of a square float64 matrix whose byte count an intp holds:
# numpy cannot address a larger one, whatever the memory.
_MAX_SIDE = math.isqrt(np.iinfo(np.intp).max // 8)


def _check_counts(n_formants, n_antiformants, n_cepstra) -> None:
    """The limits on the counts that ``TrackerParams`` and ``RunConfig`` share.

    The N x N observation noise and the d x d state covariances, d = 2(I + J),
    must be matrices numpy can address; whether memory holds them is left to
    the run."""
    if not (isinstance(n_cepstra, Integral) and n_cepstra >= 1):
        raise ValueError("n_cepstra must be positive and an integer")
    if not all(isinstance(n, Integral) and n >= 0 for n in (n_formants, n_antiformants)):
        raise ValueError("track counts must be non-negative integers")
    if n_formants + n_antiformants == 0:
        raise ValueError("need at least one formant or antiformant to track")
    if n_cepstra > _MAX_SIDE:
        raise ValueError(f"n_cepstra must be at most {_MAX_SIDE}")
    if 2 * (int(n_formants) + int(n_antiformants)) > _MAX_SIDE:  # int(): numpy integers wrap
        raise ValueError(f"the state dimension 2 * (n_formants + n_antiformants) must be at most {_MAX_SIDE}")


@dataclass(frozen=True)
class TrackerParams:
    """State-space parameter set (Q, R, mu0, Sigma0) plus track geometry.

    Every entry is a random walk.  ``Q``, ``Sigma0`` and ``R`` are
    symmetrised on construction (a no-op for exactly symmetric input).
    ``R`` must be positive definite, since the filters whiten by its
    Cholesky factor (``_whitener``), and ``Q`` and ``Sigma0`` positive
    semidefinite (eigenvalues >= -1e-12 max(1, max |entry|)); every array
    must be finite, the sample rate and hop positive and the counts within
    ``_check_counts``' limits.  An entry known exactly (a bandwidth given
    from outside, say) has its value in ``mu0`` and zero rows and columns
    in ``Sigma0`` and ``Q``; ``known`` names these entries, by their zero
    diagonals, and the filter and smoother hold them fixed.
    ``Sigma0 + Q`` must be positive definite on the other entries, which
    makes every system the tracker solves regular: each predicted
    covariance is a blocked filtered covariance plus the blocked Q,
    blocking and an update (P⁻¹ + GᵀG)⁻¹ keep a matrix positive definite,
    and the smoother gives known entries a unit diagonal, so by induction
    from frame 0 (P = Sigma0 + Q) every RTS gain system is positive definite.
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
        _check_counts(self.n_formants, self.n_antiformants, self.n_cepstra)
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
        object.__setattr__(self, "R", _symmetrize(self.R))
        for name in ("Q", "R", "Sigma0", "mu0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for name in ("sample_rate_hz", "hop_s"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("Q", "Sigma0"):
            mat = getattr(self, name)
            if (np.linalg.eigvalsh(mat) < -1e-12 * np.abs(mat).max(initial=1.0)).any():
                raise ValueError(f"{name} must be positive semidefinite")
        if self.Q[self.known].any() or self.Sigma0[self.known].any():
            raise ValueError("a known entry (zero Q and Sigma0 diagonal) needs zero rows in both")
        # scaled so the sum cannot overflow; a zero scale (all known) leaves a 0 x 0 check
        scale, free = max(np.abs(self.Q).max(), np.abs(self.Sigma0).max()) or 1.0, ~self.known
        free_sum = (self.Sigma0 / scale + self.Q / scale)[np.ix_(free, free)]
        for name, mat in [("R", self.R), ("Sigma0 + Q on the entries that are not known", free_sum)]:
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite") from None

    @property
    def state_dim(self) -> int:
        return state_columns(self.n_formants, self.n_antiformants)[-1].stop

    @property
    def known(self) -> np.ndarray:
        """Which state entries are known exactly, (dim,) bool: those with a
        zero diagonal in both ``Q`` and ``Sigma0``."""
        return (np.diag(self.Q) == 0.0) & (np.diag(self.Sigma0) == 0.0)


@dataclass(frozen=True)
class TrackActivation:
    """Per-frame presence flags for each formant and antiformant track."""

    formants: np.ndarray  # (T, I) bool
    antiformants: np.ndarray  # (T, J) bool

    def __post_init__(self):
        object.__setattr__(self, "formants", np.asarray(self.formants, dtype=bool))
        object.__setattr__(self, "antiformants", np.asarray(self.antiformants, dtype=bool))
        if self.formants.ndim != 2 or self.antiformants.ndim != 2:
            raise ValueError(
                "activation flags must be (T, I) and (T, J) arrays, "
                f"got {self.formants.shape} and {self.antiformants.shape}"
            )
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
        return self.means[:, state_columns(self.n_formants, self.n_antiformants)[0]]

    @property
    def formant_bws(self) -> np.ndarray:
        return self.means[:, state_columns(self.n_formants, self.n_antiformants)[1]]

    @property
    def antiformant_freqs(self) -> np.ndarray:
        return self.means[:, state_columns(self.n_formants, self.n_antiformants)[2]]

    @property
    def antiformant_bws(self) -> np.ndarray:
        return self.means[:, state_columns(self.n_formants, self.n_antiformants)[3]]

    @property
    def variances(self) -> np.ndarray:
        """Posterior variances (diagonal of each covariance), shape (T, dim)."""
        return np.einsum("tii->ti", self.covariances)


def _speech_flags(mask, n_frames: int) -> np.ndarray:
    if mask is None:
        return np.ones(n_frames, dtype=bool)
    flags = np.asarray(mask, dtype=bool)
    if flags.size != n_frames:
        raise ValueError("activity mask length does not match observation count")
    return flags


def _entry_flags(activation: TrackActivation) -> np.ndarray:
    """Per-frame activity of every state entry, shape (T, dim): each
    track's flag on its frequency and its bandwidth entry, the one form of
    activity below ``TrackActivation``."""
    f, a = activation.formants, activation.antiformants
    blocks = state_columns(f.shape[1], a.shape[1])
    flags = np.empty((len(f), blocks[-1].stop), dtype=bool)
    for cols, track_flags in zip(blocks, (f, f, a, a)):
        flags[:, cols] = track_flags
    return flags


def _flag_changes(flags: np.ndarray) -> np.ndarray:
    """Frames whose entry flags differ from the previous frame's; frame 0 always counts."""
    changed = np.ones(len(flags), dtype=bool)
    changed[1:] = np.any(flags[1:] != flags[:-1], axis=1)
    return changed


def _blocked(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``mat`` with the couplings between active and inactive entries zeroed,
    or a (B, d, d) stack of it for a (B, d) stack of entry flags ``g``."""
    return np.where(g[..., :, None] == g[..., None, :], mat, 0.0)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    """``mat``, or each matrix of a stack of them, made symmetric."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _resolve_setup(obs, params, mask, activation, obs_model):
    """Checked inputs of a tracker run: ``(y, speech, activation, flags,
    obs_model)``, with ``flags`` the activation's ``_entry_flags``."""
    y = np.atleast_2d(np.asarray(obs, dtype=float))
    n_frames = y.shape[0]
    if n_frames < 1:
        raise ValueError("need at least one observation frame")
    if y.shape[1] != params.n_cepstra:
        raise ValueError(
            f"observations have {y.shape[1]} columns; params expect {params.n_cepstra} cepstra"
        )
    speech = _speech_flags(mask, n_frames)
    bad = np.flatnonzero(speech & ~np.isfinite(y).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite observation at speech frame {bad[0]}")
    activation = _checked_activation(activation, n_frames, params)
    if obs_model is None:
        obs_model = CepstralObservation(
            params.n_formants, params.n_antiformants, params.n_cepstra, params.sample_rate_hz
        )
    return y, speech, activation, _entry_flags(activation), obs_model


def _checked_activation(activation, n_frames: int, params: TrackerParams) -> TrackActivation:
    """``activation`` (all active if None), checked against ``n_frames`` and ``params``."""
    if activation is None:
        return TrackActivation.all_active(n_frames, params.n_formants, params.n_antiformants)
    if len(activation) != n_frames:
        raise ValueError("activation length does not match observation count")
    widths = activation.formants.shape[1], activation.antiformants.shape[1]
    if widths != (params.n_formants, params.n_antiformants):
        raise ValueError(
            f"activation has {widths[0]} formant and {widths[1]} antiformant columns; "
            f"params track {params.n_formants} formants and {params.n_antiformants} antiformants"
        )
    return activation


def _clamp(vec, bounds):
    """Clamp ``vec``, a state or a stack of them, in place to ``bounds``
    (the observation model's ``state_bounds()``), if there are any."""
    if bounds is not None:
        np.maximum(vec, bounds[0], out=vec)
        np.minimum(vec, bounds[1], out=vec)
    return vec


def _whitener(R: np.ndarray) -> np.ndarray:
    """W = L⁻¹ for the Cholesky factor L of R = L Lᵀ, so that W R Wᵀ = I
    and ‖W r‖² = rᵀ R⁻¹ r."""
    return np.linalg.inv(np.linalg.cholesky(R))


def _filtered(y, params, speech, flags, obs_model):
    """The forward EKF recursion: (T, dim) filtered means and (T, dim, dim)
    covariances, the predicted moments on a frame with no update.  Each
    frame's moments are written straight into their rows, and the
    predicted P + Q straight into the right-hand side of the update's solve.

    At frames whose entry flags change, and only there, the entering
    covariance is decoupled between active and inactive entries and the
    blocked process noise is rebuilt.  A returning entry keeps the moments
    it coasted to.  ``mu0`` is clamped to the state bounds once, before
    the first frame; after that only the update moves the mean, and it
    ends with the same clamp.  The predict keeps the mean and adds Q to
    P; P stays exactly symmetric, since Q is and every update ends
    symmetrised.

    The update is whitened by W = ``_whitener(R)``: G = W H, with the
    columns of inactive and known entries (``TrackerParams.known``)
    zeroed, and eps = W (y_t - h).  With A = I + P GᵀG, the push-through
    identity P Gᵀ (G P Gᵀ + I)⁻¹ = A⁻¹ P Gᵀ makes the gain step one d x d
    solve, A X = [P Gᵀ eps | P]: the mean moves by X[:, 0] and the
    posterior covariance is X[:, 1:].  A's eigenvalues are those of
    I + P^½ GᵀG P^½, all >= 1 for a PSD P, so A is never singular.
    Inactive and known entries get zero rows in A - I and on the
    right-hand side, so they keep their moments exactly.  The same solve
    gives the normalized innovation squared, epsᵀeps - (Gᵀeps)ᵀ X[:, 0].
    """
    bounds = obs_model.state_bounds()
    rebuild = _flag_changes(flags).tolist()
    update = (speech & flags.any(axis=1)).tolist()
    free = ~params.known
    W = _whitener(params.R)
    dim = params.state_dim
    means = np.empty((len(y), dim))
    covs = np.empty((len(y), dim, dim))
    stacked = np.empty((params.n_cepstra, dim + 1))  # [H | y_t - h]
    G_eps = np.empty((params.n_cepstra, dim + 1))  # [G | eps]
    work = np.empty((dim, 2 * dim + 1))  # [A | P Gᵀ eps | P]
    H_slot, eps_slot, G = stacked[:, :dim], stacked[:, dim], G_eps[:, :dim]
    A, rhs, P_slot, AB = work[:, :dim], work[:, dim:], work[:, dim + 1 :], work[:, : dim + 1]
    A_diag = work.reshape(-1)[:: 2 * dim + 2]

    m, P = _clamp(params.mu0.copy(), bounds), params.Sigma0
    for t, g in enumerate(flags):
        if rebuild[t]:
            P = _blocked(P, g)
            Q = _blocked(params.Q, g)
            active = None if g.all() else g
            unobserved = ~(g & free)
            if not unobserved.any():
                unobserved = None

        if not update[t]:
            means[t] = m
            P = np.add(P, Q, out=covs[t])
            continue

        np.add(P, Q, out=P_slot)
        h_val, H = obs_model.linearize(m, active)
        np.copyto(H_slot, H)
        np.subtract(y[t], h_val, out=eps_slot)
        np.matmul(W, stacked, out=G_eps)
        if unobserved is not None:
            G[:, unobserved] = 0.0
        np.matmul(P_slot, G.T @ G_eps, out=AB)  # [P GᵀG | P Gᵀ eps]
        A_diag += 1.0  # A = I + P GᵀG
        X = _umath_linalg.solve(A, rhs, signature="dd->d")
        m = _clamp(np.add(m, X[:, 0], out=means[t]), bounds)
        P = np.add(X[:, 1:], X[:, 1:].T, out=covs[t])
        P *= 0.5  # _symmetrize, in place
    return means, covs


def _make_result(means, covs, speech, activation, n_cepstra, sample_rate_hz, hop_s) -> TrackResult:
    """The one constructor of ``TrackResult``.  The track counts are the
    widths of ``activation``'s flags; the flags and ``speech`` are copied."""
    return TrackResult(
        means=means,
        covariances=covs,
        speech=np.array(speech, dtype=bool),
        formant_active=activation.formants.copy(),
        antiformant_active=activation.antiformants.copy(),
        n_formants=activation.formants.shape[1],
        n_antiformants=activation.antiformants.shape[1],
        n_cepstra=n_cepstra,
        sample_rate_hz=sample_rate_hz,
        hop_s=hop_s,
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
    marks speech frames; silent frames update nothing but still propagate,
    and only they may hold non-finite observations: one on a speech frame
    raises ``ValueError`` naming the first such frame.
    An entry known exactly (see ``TrackerParams``) keeps zero variance and a
    zero gain row, so it holds its ``mu0`` value on every frame.
    """
    y, speech, activation, flags, obs_model = _resolve_setup(obs, params, mask, activation, obs_model)
    means, covs = _filtered(y, params, speech, flags, obs_model)
    return _make_result(means, covs, speech, activation, params.n_cepstra, params.sample_rate_hz, params.hop_s)


# Each (B, dim, dim) stack of a block of smoother gains takes at most
# 1/_GAIN_BLOCK_DIVISOR of frontend._BLOCK_BYTES (56 frames at dim 6): small
# beside the (T, dim, dim) result, and enough frames to share a solve's call cost.
_GAIN_BLOCK_DIVISOR = 64


def _rts_gains(P_filt, flags, Q, known):
    """Entering covariances, predicted covariances and RTS gains of a block
    of frames, all (B, dim, dim), from the filtered covariances of the
    frames before them (``P_filt``), their own entry flags (``flags``) and
    ``TrackerParams.known``.

    The entering covariances are ``_blocked`` by their frames' flags (a
    no-op, ±0 aside, where those are the flags they were filtered with).
    Known entries get a unit diagonal, which gives them zero gains.  The
    gains are one direct gufunc solve of the transposed stack, with no
    fallback: ``TrackerParams`` makes every system positive definite.
    """
    P_prev = _blocked(P_filt, flags)
    P_pred = P_prev + _blocked(Q, flags)
    P_pred[:, known, known] = 1.0
    gains = _umath_linalg.solve(P_pred.swapaxes(1, 2), P_prev.swapaxes(1, 2), signature="dd->d")
    return P_prev, P_pred, gains.swapaxes(1, 2)


def _compose_suffixes(maps: np.ndarray) -> None:
    """Hillis–Steele suffix scan, in place, over a (B, d, 2d + 1) stack
    of affine maps [E | L | g]: afterwards map k is the composition of maps
    k, k + 1, ..., B - 1, from log₂ B rounds of stacked products.

    A map sends a correction d to E d + g and a covariance P to E P Eᵀ + L,
    so map i after map j is (E_i E_j, E_i L_j E_iᵀ + L_i, E_i g_j + g_i).
    """
    n_maps, dim, span = len(maps), maps.shape[1], 1
    while span < n_maps:
        E = maps[: n_maps - span, :, :dim]
        composed = E @ maps[span:]  # [E_i E_j | E_i L_j | E_i g_j]
        maps[: n_maps - span, :, dim:-1] += composed[:, :, dim:-1] @ E.swapaxes(1, 2)
        maps[: n_maps - span, :, -1] += composed[:, :, -1]
        E[...] = composed[:, :, :dim]
        span *= 2


def eks_smooth(
    obs,
    params: TrackerParams,
    mask=None,
    activation: TrackActivation | None = None,
    obs_model=None,
) -> TrackResult:
    """Fixed-interval smoother: the forward pass of ``ekf_filter`` plus an
    RTS backward pass.

    The backward pass overwrites the filter's output in place and stores
    no predictions: it recomputes frame t's predicted moments from frame
    t-1's filtered ones by the forward pass's rule.  The mean carries
    over, and the entering covariance, blocked by frame t's activation
    flags, gains the blocked Q.  Under the random walk the gain's
    right-hand side is that entering covariance itself.  The gains depend
    only on the filter's output, so they are taken a block of frames at a
    time (``_rts_gains``, one stacked solve with no fallback), just before
    the backward pass reaches the block.

    Within a block the pass is an associative scan (Särkkä and
    García-Fernández 2021), not a loop over frames.  It runs on the
    smoother's corrections d_t = m_s[t] - m_t to the filtered means m_t.
    The RTS rule d_t = G_t (d_{t+1} + m_{t+1} - m_t) and
    P_s[t] = P_prev,t - G_t P_pred,t G_tᵀ + G_t P_s[t+1] G_tᵀ make frame t
    an affine map of frame t+1's correction and covariance.  The block's
    last frame takes the smoothed moments of the frame after the block, so
    its map ends in a constant, and ``_compose_suffixes`` composes each
    frame's map with those after it in log₂ B rounds of stacked products:
    the composed maps' constants are the frames' corrections and smoothed
    covariances.  An entry with zero gains to every moving entry, an
    unmoving filtered mean and a zero correction after it (a known entry,
    or one that coasts to the end) keeps a correction of exactly zero, as
    in the sequential pass.  The scan sums in another order than the
    sequential rule, so the two agree to rounding (1e-9 relative in the
    tests).

    The clamp to the state bounds is not affine.  Covariances never depend
    on it, so they always come from the scan; a block whose scanned means
    leave the bounds takes its means from the clamped sequential rule
    m_s[t] = clamp(m_t + G_t (m_s[t+1] - m_t)) instead.
    A known entry (``TrackerParams.known``) gets a zero smoother gain, so
    it keeps its value and zero variance.
    """
    y, speech, activation, flags, obs_model = _resolve_setup(obs, params, mask, activation, obs_model)
    m_s, P_s = _filtered(y, params, speech, flags, obs_model)

    bounds = obs_model.state_bounds()
    known, dim = params.known, params.state_dim
    # m_s/P_s hold the filtered moments until the backward pass reaches
    # them.  A block smooths frames ``rows`` with the gains of frames ``rows`` + 1.
    for rows in reversed(_row_blocks(len(y) - 1, _GAIN_BLOCK_DIVISOR * P_s[:1].nbytes)):
        after = slice(rows.start + 1, rows.stop + 1)
        P_prev, P_pred, gains = _rts_gains(P_s[rows], flags[after], params.Q, known)
        # each frame's map [E | L | g]; the last one takes the smoothed moments
        # after the block (m_s[after] is filtered but for its last row)
        P_pred[-1] -= P_s[rows.stop]
        maps = np.concatenate(
            (gains, P_prev - gains @ P_pred @ gains.swapaxes(1, 2), gains @ (m_s[after] - m_s[rows])[:, :, None]),
            axis=2,
        )
        del P_prev, P_pred  # before the scan's temporaries exist
        _compose_suffixes(maps)
        means = m_s[rows] + maps[:, :, -1]
        if bounds is not None and ((means < bounds[0]).any() or (means > bounds[1]).any()):
            for k in range(len(gains) - 1, -1, -1):
                t = rows.start + k
                m_s[t] = _clamp(m_s[t] + gains[k] @ (m_s[t + 1] - m_s[t]), bounds)
        else:
            m_s[rows] = means
        P_s[rows] = _symmetrize(maps[:, :, dim:-1])
    return _make_result(m_s, P_s, speech, activation, params.n_cepstra, params.sample_rate_hz, params.hop_s)


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
    f, b, af, ab = state_columns(i, j)
    q_diag, mu0 = np.empty((2, ab.stop))
    with np.errstate(over="ignore"):  # an overflow is TrackerParams' "Q must be finite"
        q_diag[np.r_[f, af]] = np.float64(freq_process_std) ** 2
        q_diag[np.r_[b, ab]] = np.float64(bw_process_std) ** 2
    ceiling = 0.48 * sample_rate_hz
    mu0[f] = np.minimum(500.0 + 1000.0 * np.arange(i), ceiling)
    mu0[b] = 80.0 + 40.0 * np.arange(i)
    mu0[af] = np.minimum(1000.0 + 1000.0 * np.arange(j), ceiling)
    mu0[ab] = 80.0
    Q = np.diag(q_diag)
    R = np.diag(1.0 / np.arange(1, n_cepstra + 1, dtype=float))
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
