"""Bootstrap particle filter over the resonance state space.

Serves as the linearization-validity oracle for the extended Kalman
tracker: both filters run on the same simulated observations and their
root-mean-square errors are compared.  Systematic resampling is used, with
the random-walk prior as proposal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cepstrum import CepstralObservation, state_columns
from .tracker import (
    TrackerParams,
    TrackResult,
    _clamp,
    _make_result,
    _resolve_setup,
    _whitener,
    default_params,
    ekf_filter,
)

__all__ = ["pf_track", "ekf_pf_benchmark", "BenchmarkSetup"]


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a symmetric PSD matrix (eigenvalue clipping at zero)."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    """Indices of n systematic draws; the cumulative sum can round to just
    below 1, so its end is set to 1 and a draw past it takes the last particle."""
    n = weights.size
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, (np.arange(n) + rng.uniform()) / n)


def pf_track(
    obs,
    params: TrackerParams,
    mask=None,
    n_particles: int = 1000,
    seed: int = 0,
    obs_model=None,
) -> TrackResult:
    """Bootstrap particle filter returning weighted means and covariances.

    Particles propagate through the random walk x_{t+1} = x_t + w_t, are
    weighted by the Gaussian likelihood of y_t under the exact observation
    map and R, and are systematically resampled when the effective sample
    size, 1 / sum w_i^2, drops below half the particle count.  Silent
    frames propagate without reweighting; a non-finite observation on a
    speech frame raises ``ValueError``.  An entry with zero prior and
    process variance is known: every particle carries its ``mu0`` value.
    Process noise is drawn only for the nonzero columns of Q's factor, one
    normal per particle and column per frame, and added in place; the
    particles are then clamped in place by the tracker's ``_clamp``, as
    the EKF's mean is.  A particle's log-likelihood is
    -1/2 ||W (y_t - h)||^2, with the EKF's whitener W (``_whitener``),
    taken on the (N, particles) layout of ``value``'s sums.  Each
    reweight takes one ``exp`` of the log-weights shifted to a largest
    value of 0 and normalises by division.  When the largest log-weight
    is not finite (every weight underflowed), the weights reset to
    uniform with a warning.  Fixed seed gives bit-identical output.
    """
    if n_particles < 10:
        raise ValueError("need at least 10 particles")
    y, speech, activation, _, obs_model = _resolve_setup(obs, params, mask, None, obs_model)
    rng = np.random.default_rng(seed)
    dim = params.state_dim

    chol_q = _psd_factor(params.Q)
    chol_q = chol_q[:, np.any(chol_q != 0.0, axis=0)]
    chol_s0 = _psd_factor(params.Sigma0)
    W = _whitener(params.R)

    particles = params.mu0 + rng.standard_normal((n_particles, dim)) @ chol_s0.T
    uniform = np.full(n_particles, 1.0 / n_particles)
    log_w = np.zeros(n_particles)  # up to a constant
    w = uniform

    bounds = obs_model.state_bounds()
    means = np.zeros((len(y), dim))
    covs = np.zeros((len(y), dim, dim))

    for t in range(len(y)):
        particles += rng.standard_normal((n_particles, chol_q.shape[1])) @ chol_q.T
        _clamp(particles, bounds)

        if speech[t]:
            white = W @ (y[t][:, None] - obs_model.value(particles).T)  # (N, particles)
            log_w -= 0.5 * np.einsum("np,np->p", white, white)
            shift = log_w.max()
            if not np.isfinite(shift):
                warnings.warn("particle weights underflowed; resetting to uniform")
                log_w.fill(0.0)
                w = uniform
            else:
                # after the shift the largest weight is 1, so the sum is in [1, n]
                log_w -= shift
                w = np.exp(log_w)
                w /= w.sum()

        mean = w @ particles
        centered = particles - mean
        covs[t] = (centered * w[:, None]).T @ centered
        means[t] = mean

        if 1.0 / (w @ w) < n_particles / 2.0:
            particles = particles[_systematic_resample(w, rng)]
            log_w.fill(0.0)
            w = uniform

    return _make_result(means, covs, speech, activation, params.n_cepstra, params.sample_rate_hz, params.hop_s)


@dataclass(frozen=True)
class BenchmarkSetup:
    """Synthetic state-space draw used for the EKF-vs-PF comparison.

    Four formant pairs observed through fifteen cepstral coefficients over
    short sequences.  The bandwidths are known: zero prior and process
    variance hold them at their ``default_params`` values in the simulation
    and in both filters.
    """

    n_formants: int = 4
    n_cepstra: int = 15
    n_frames: int = 100
    sample_rate_hz: float = 10000.0
    freq_walk_std: float = 20.0
    init_freq_std: float = 50.0

    def make_params(self) -> TrackerParams:
        params = default_params(
            self.n_formants,
            0,
            self.sample_rate_hz,
            self.n_cepstra,
            freq_process_std=self.freq_walk_std,
            bw_process_std=0.0,
        )
        var0 = np.zeros(params.state_dim)
        var0[state_columns(self.n_formants, 0)[0]] = self.init_freq_std**2
        return replace(params, Sigma0=np.diag(var0))

    def simulate(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw (true_states, observations) from the state-space model; the
        observation noise is R's Cholesky factor times standard normals."""
        params = self.make_params()
        model = CepstralObservation(self.n_formants, 0, self.n_cepstra, self.sample_rate_hz)
        i, f = self.n_formants, state_columns(self.n_formants, 0)[0]
        x = params.mu0.copy()
        x[f] += self.init_freq_std * rng.standard_normal(i)
        states = np.zeros((self.n_frames, params.state_dim))
        noise = np.zeros((self.n_frames, self.n_cepstra))
        for t in range(self.n_frames):
            x[f] = np.clip(x[f] + self.freq_walk_std * rng.standard_normal(i), 100.0, 4900.0)
            states[t] = x
            noise[t] = rng.standard_normal(self.n_cepstra)
        # a stacked value equals the per-row value bit for bit; for a
        # diagonal R the noise is sqrt(R_nn) times each draw, bit for bit
        return states, model.value(states) + noise @ np.linalg.cholesky(params.R).T


def _freq_rmse(estimate: TrackResult, truth: np.ndarray) -> float:
    err = estimate.formant_freqs - truth[:, state_columns(estimate.n_formants, 0)[0]]
    return float(np.sqrt(np.mean(err**2)))


def _benchmark_counts(trials: int, particle_counts) -> list[int]:
    """The particle counts of ``ekf_pf_benchmark`` as a list, after checking
    them and the trial count: at least one trial, and at least one count,
    each distinct and at least 10."""
    if trials < 1:
        raise ValueError("need at least one trial")
    counts = list(particle_counts)
    if not counts:
        raise ValueError("need at least one particle count")
    if min(counts) < 10:
        raise ValueError("particle counts must be at least 10")
    if len(set(counts)) < len(counts):
        raise ValueError(f"particle counts must be distinct: {counts}")
    return counts


def ekf_pf_benchmark(
    trials: int = 25,
    particle_counts=(100, 1000),
    seed: int = 0,
    setup: BenchmarkSetup | None = None,
) -> dict:
    """Monte Carlo comparison of EKF and particle-filter tracking error.

    Each trial draws a fresh trajectory and observation sequence; both
    filters run on identical data with the true bandwidths known.  Returns
    per-particle-count RMSE summaries with 95 % confidence intervals
    (mean +/- 1.96 * sd / sqrt(trials)).  The trial and particle counts
    are checked before the first trial is drawn (``_benchmark_counts``).
    """
    counts = _benchmark_counts(trials, particle_counts)
    setup = setup or BenchmarkSetup()
    params = setup.make_params()
    ekf_rmse = np.zeros(trials)
    pf_rmse = np.zeros((len(counts), trials))
    master = np.random.default_rng(seed)
    for trial in range(trials):
        rng = np.random.default_rng(master.integers(2**63))
        truth, obs = setup.simulate(rng)
        est = ekf_filter(obs, params)
        ekf_rmse[trial] = _freq_rmse(est, truth)
        for ci, count in enumerate(counts):
            pf = pf_track(obs, params, n_particles=count, seed=int(master.integers(2**63)))
            pf_rmse[ci, trial] = _freq_rmse(pf, truth)

    def summary(values_arr):
        mean = float(values_arr.mean())
        if values_arr.size > 1:
            half = 1.96 * float(values_arr.std(ddof=1)) / np.sqrt(values_arr.size)
        else:
            half = 0.0
        return {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}

    return {
        "trials": trials,
        "ekf": summary(ekf_rmse),
        "ekf_per_trial": ekf_rmse,
        "pf": {count: summary(pf_rmse[ci]) for ci, count in enumerate(counts)},
        "pf_per_trial": {count: pf_rmse[ci].copy() for ci, count in enumerate(counts)},
    }
