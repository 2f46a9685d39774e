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

from .cepstrum import CepstralObservation
from .tracker import (
    TrackerParams,
    TrackResult,
    _clamp,
    _make_result,
    _resolve_setup,
    default_params,
    ekf_filter,
)

__all__ = ["pf_track", "ekf_pf_benchmark", "BenchmarkSetup"]


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a symmetric PSD matrix (eigenvalue clipping at zero)."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _quadratic_form(resid: np.ndarray, r_inv: np.ndarray) -> np.ndarray:
    """resid_i^T R^-1 resid_i for every row i of ``resid``."""
    return np.einsum("ij,ij->i", resid @ r_inv, resid)


def _systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    """Indices of n systematic draws; the cumulative sum can round to just
    below 1, so a draw past its end takes the last particle."""
    n = weights.size
    positions = (np.arange(n) + rng.uniform()) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)


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
    size drops below half the particle count.  Silent frames propagate
    without reweighting.  An entry with zero prior and process variance is
    known: every particle carries its ``mu0`` value.  Process noise is
    drawn only for the nonzero columns of Q's factor, one normal per
    particle and column per frame.  When the largest log-weight is not
    finite (every weight underflowed), the weights reset to uniform with a
    warning.  Fixed seed gives bit-identical output.
    """
    if n_particles < 10:
        raise ValueError("need at least 10 particles")
    y, n_frames, speech, activation, obs_model = _resolve_setup(obs, params, mask, None, obs_model)
    rng = np.random.default_rng(seed)
    dim = params.state_dim

    chol_q = _psd_factor(params.Q)
    chol_q = chol_q[:, np.any(chol_q != 0.0, axis=0)]
    chol_s0 = _psd_factor(params.Sigma0)
    r_inv = np.linalg.inv(params.R)

    particles = params.mu0 + rng.standard_normal((n_particles, dim)) @ chol_s0.T
    log_w = np.full(n_particles, -np.log(n_particles))

    bounds = obs_model.state_bounds()
    means = np.zeros((n_frames, dim))
    covs = np.zeros((n_frames, dim, dim))

    for t in range(n_frames):
        noise = rng.standard_normal((n_particles, chol_q.shape[1])) @ chol_q.T
        particles = _clamp(particles + noise, bounds)

        if speech[t]:
            resid = y[t] - obs_model.value(particles)
            log_w = log_w - 0.5 * _quadratic_form(resid, r_inv)
            shift = log_w.max()
            if not np.isfinite(shift):
                warnings.warn("particle weights underflowed; resetting to uniform")
                log_w = np.full(n_particles, -np.log(n_particles))
            else:
                # after the shift the largest term is 1, so the sum is in [1, n]
                log_w = log_w - shift
                log_w = log_w - np.log(np.sum(np.exp(log_w)))

        w = np.exp(log_w)
        mean = w @ particles
        centered = particles - mean
        covs[t] = (centered * w[:, None]).T @ centered
        means[t] = mean

        if 1.0 / np.sum(w**2) < n_particles / 2.0:
            idx = _systematic_resample(w, rng)
            particles = particles[idx]
            log_w = np.full(n_particles, -np.log(n_particles))

    return _make_result(means, covs, speech, activation, params)


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
        i = self.n_formants
        sigma0 = np.diag(np.concatenate([np.full(i, self.init_freq_std**2), np.zeros(i)]))
        return replace(params, Sigma0=sigma0)

    def simulate(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw (true_states, observations) from the state-space model."""
        params = self.make_params()
        model = CepstralObservation(self.n_formants, 0, self.n_cepstra, self.sample_rate_hz)
        i = self.n_formants
        x = params.mu0.copy()
        x[:i] += self.init_freq_std * rng.standard_normal(i)
        states = np.zeros((self.n_frames, 2 * i))
        noise = np.zeros((self.n_frames, self.n_cepstra))
        r_std = np.sqrt(np.diag(params.R))
        for t in range(self.n_frames):
            x[:i] = np.clip(x[:i] + self.freq_walk_std * rng.standard_normal(i), 100.0, 4900.0)
            states[t] = x
            noise[t] = rng.standard_normal(self.n_cepstra)
        # a stacked value equals the per-row value bit for bit
        return states, model.value(states) + r_std * noise


def _freq_rmse(estimate: TrackResult, truth: np.ndarray, n_formants: int) -> float:
    err = estimate.means[:, :n_formants] - truth[:, :n_formants]
    return float(np.sqrt(np.mean(err**2)))


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
    (mean +/- 1.96 * sd / sqrt(trials)).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    setup = setup or BenchmarkSetup()
    params = setup.make_params()
    counts = list(particle_counts)
    ekf_rmse = np.zeros(trials)
    pf_rmse = np.zeros((len(counts), trials))
    master = np.random.default_rng(seed)
    for trial in range(trials):
        rng = np.random.default_rng(master.integers(2**63))
        truth, obs = setup.simulate(rng)
        est = ekf_filter(obs, params)
        ekf_rmse[trial] = _freq_rmse(est, truth, setup.n_formants)
        for ci, count in enumerate(counts):
            pf = pf_track(obs, params, n_particles=count, seed=int(master.integers(2**63)))
            pf_rmse[ci, trial] = _freq_rmse(pf, truth, setup.n_formants)

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
