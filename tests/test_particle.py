import numpy as np
import pytest

from karma.particle import BenchmarkSetup, _quadratic_form, _systematic_resample, ekf_pf_benchmark, pf_track
from karma.cepstrum import CepstralObservation
from karma.tracker import LinearObservation, TrackerParams, ekf_filter

from conftest import FrozenCepstralObservation


def linear_params(q_scale=0.3, r_scale=0.5, sigma0_scale=1.0):
    return TrackerParams(
        Q=q_scale * np.eye(2),
        R=r_scale * np.eye(2),
        mu0=np.array([2.0, -1.0]),
        Sigma0=sigma0_scale * np.eye(2),
        n_formants=1,
        n_antiformants=0,
        n_cepstra=2,
        sample_rate_hz=8000.0,
    )


class TestPfTrack:
    def test_requires_minimum_particles(self):
        params = linear_params()
        with pytest.raises(ValueError, match="10 particles"):
            pf_track(np.zeros((3, 2)), params, n_particles=5)

    def test_zero_noise_exact_trajectory(self):
        params = TrackerParams(
            Q=np.zeros((2, 2)),
            R=1e-6 * np.eye(2),
            mu0=np.array([1.0, 2.0]),
            Sigma0=np.zeros((2, 2)),
            n_formants=1,
            n_antiformants=0,
            n_cepstra=2,
            sample_rate_hz=8000.0,
        )
        truth = np.tile(params.mu0, (12, 1))
        obs = truth @ np.eye(2)
        res = pf_track(obs, params, n_particles=50, seed=0, obs_model=LinearObservation(np.eye(2)))
        assert np.abs(res.means - truth).max() < 1e-12

    def test_fixed_seed_bit_identical(self):
        params = linear_params()
        y = np.random.default_rng(0).standard_normal((15, 2))
        a = pf_track(y, params, n_particles=200, seed=42, obs_model=LinearObservation(np.eye(2)))
        b = pf_track(y, params, n_particles=200, seed=42, obs_model=LinearObservation(np.eye(2)))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_underflowed_weights_reset_to_uniform(self):
        params = linear_params()
        y = np.full((3, 2), 1e200)
        model = LinearObservation(np.eye(2))
        with pytest.warns(UserWarning, match="underflowed") as record:
            res = pf_track(y, params, n_particles=50, seed=4, obs_model=model)
        assert all(w.category is UserWarning for w in record)
        # uniform weights after every frame: the run equals one with no observations
        silent = pf_track(y, params, mask=np.zeros(3, bool), n_particles=50, seed=4, obs_model=model)
        assert np.array_equal(res.means, silent.means)
        assert np.array_equal(res.covariances, silent.covariances)

    def test_matches_kalman_within_monte_carlo_error(self):
        params = linear_params()
        H = np.array([[1.0, 0.0], [0.5, 1.0]])
        rng = np.random.default_rng(100)
        x = params.mu0 + rng.standard_normal(2)
        states, obs = [], []
        for _ in range(30):
            x = x + np.sqrt(0.3) * rng.standard_normal(2)
            states.append(x)
            obs.append(H @ x + np.sqrt(0.5) * rng.standard_normal(2))
        obs = np.asarray(obs)
        model = LinearObservation(H)
        kf = ekf_filter(obs, params, obs_model=model)
        pf = pf_track(obs, params, n_particles=10000, seed=1, obs_model=model)
        # Monte Carlo standard error of the particle mean, inflated for the
        # serial correlation that resampling introduces
        se = 2.0 * np.sqrt(kf.variances / 10000.0)
        within = np.abs(pf.means - kf.means) <= 3.0 * se
        assert within.mean() > 0.95

    def test_silent_frames_propagate_without_reweighting(self):
        params = linear_params()
        y = np.random.default_rng(2).standard_normal((10, 2)) * 5
        mask = np.zeros(10, bool)
        res = pf_track(y, params, mask=mask, n_particles=500, seed=3,
                       obs_model=LinearObservation(np.eye(2)))
        # with no updates the ensemble mean stays near the prior mean
        assert np.abs(res.means[-1] - params.mu0).max() < 0.2


class TestSystematicResample:
    def test_top_draw_stays_in_range(self):
        """The cumulative weights often end just below 1; a draw above that end
        takes the last particle, not index n."""

        class TopRng:
            def uniform(self):
                return np.nextafter(1.0, 0.0)

        rng = np.random.default_rng(0)
        past_the_end = 0
        for _ in range(2000):
            w = rng.random(1000)
            w /= w.sum()
            past_the_end += np.cumsum(w)[-1] < (999 + np.nextafter(1.0, 0.0)) / 1000
            idx = _systematic_resample(w, TopRng())
            assert idx.min() >= 0 and idx.max() == 999
            assert np.all(np.diff(idx) >= 0)
        assert past_the_end > 0


class TestQuadraticForm:
    @pytest.mark.parametrize("n_particles, n_obs", [(1, 1), (100, 15), (1000, 15), (37, 20)])
    def test_matches_three_operand_einsum(self, n_particles, n_obs):
        rng = np.random.default_rng(n_particles + n_obs)
        resid = rng.standard_normal((n_particles, n_obs))
        a = rng.standard_normal((n_obs, n_obs))
        r_inv = np.linalg.inv(a @ a.T + n_obs * np.eye(n_obs))
        expected = np.einsum("ij,jk,ik->i", resid, r_inv, resid)
        np.testing.assert_allclose(_quadratic_form(resid, r_inv), expected, rtol=1e-12)


class TestBenchmark:
    def test_benchmark_shapes_and_determinism(self):
        a = ekf_pf_benchmark(trials=2, particle_counts=[50], seed=7,
                             setup=BenchmarkSetup(n_frames=20))
        b = ekf_pf_benchmark(trials=2, particle_counts=[50], seed=7,
                             setup=BenchmarkSetup(n_frames=20))
        assert a["ekf"]["mean"] == b["ekf"]["mean"]
        assert a["pf"][50]["mean"] == b["pf"][50]["mean"]
        assert a["pf_per_trial"][50].shape == (2,)

    def test_simulation_freezes_bandwidths(self):
        setup = BenchmarkSetup(n_frames=10)
        params = setup.make_params()
        bw = np.arange(setup.n_formants, 2 * setup.n_formants)
        assert np.all(np.diag(params.Sigma0)[bw] == 0.0)
        assert np.all(np.diag(params.Q)[bw] == 0.0)
        truth, obs = setup.simulate(np.random.default_rng(0))
        assert np.all(truth[:, bw] == params.mu0[bw])
        assert obs.shape == (10, setup.n_cepstra)
        pf = pf_track(obs, params, n_particles=50)
        assert np.allclose(pf.means[:, bw], params.mu0[bw], rtol=1e-12, atol=0.0)
        assert np.allclose(pf.covariances[:, bw, :], 0.0, rtol=0.0, atol=1e-9)

    def test_oracle_equals_frozen_kernel_run(self):
        setup = BenchmarkSetup()
        params = setup.make_params()
        _, obs = setup.simulate(np.random.default_rng(3))
        frozen = FrozenCepstralObservation(setup.n_formants, 0, setup.n_cepstra, setup.sample_rate_hz)
        pf = pf_track(obs, params, n_particles=1000, seed=5)
        ref = pf_track(obs, params, n_particles=1000, seed=5, obs_model=frozen)
        assert np.array_equal(pf.means, ref.means)
        assert np.array_equal(pf.covariances, ref.covariances)

    def test_process_draws_only_free_entries(self, monkeypatch):
        setup = BenchmarkSetup(n_frames=20)
        params = setup.make_params()
        _, obs = setup.simulate(np.random.default_rng(4))
        bw = np.arange(setup.n_formants, 2 * setup.n_formants)
        draws, seen = [], []
        make_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = make_rng(seed)

            def standard_normal(self, size):
                draws.append(size)
                return self._rng.standard_normal(size)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        class RecordingObservation(CepstralObservation):
            def value(self, x, active_f=None, active_a=None):
                seen.append(x.copy())
                return super().value(x, active_f, active_a)

        model = RecordingObservation(setup.n_formants, 0, setup.n_cepstra, setup.sample_rate_hz)
        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        runs = [pf_track(obs, params, n_particles=60, seed=9, obs_model=model) for _ in range(2)]
        monkeypatch.undo()

        # the initial draw, then one (particles, free entries) draw per frame, for each run
        n_free = setup.n_formants
        per_run = [(60, 2 * setup.n_formants)] + [(60, n_free)] * setup.n_frames
        assert draws == per_run * 2
        # every particle carries the known bandwidths exactly
        assert len(seen) == 2 * setup.n_frames
        assert all(np.all(x[:, bw] == params.mu0[bw]) for x in seen)
        assert np.array_equal(runs[0].means, runs[1].means)
        assert np.array_equal(runs[0].covariances, runs[1].covariances)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_simulation_equals_per_frame_loop(self, seed):
        setup = BenchmarkSetup()
        states, obs = setup.simulate(np.random.default_rng(seed))
        # frozen copy of the per-frame loop: h evaluated one state at a time
        rng = np.random.default_rng(seed)
        params = setup.make_params()
        model = CepstralObservation(setup.n_formants, 0, setup.n_cepstra, setup.sample_rate_hz)
        i = setup.n_formants
        x = params.mu0.copy()
        x[:i] += setup.init_freq_std * rng.standard_normal(i)
        ref_states = np.zeros((setup.n_frames, 2 * i))
        ref_obs = np.zeros((setup.n_frames, setup.n_cepstra))
        r_std = np.sqrt(np.diag(params.R))
        for t in range(setup.n_frames):
            x = x.copy()
            x[:i] = np.clip(x[:i] + setup.freq_walk_std * rng.standard_normal(i), 100.0, 4900.0)
            ref_states[t] = x
            ref_obs[t] = model.value(x) + r_std * rng.standard_normal(setup.n_cepstra)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(obs, ref_obs)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            ekf_pf_benchmark(trials=trials, particle_counts=[50], setup=BenchmarkSetup(n_frames=5))
