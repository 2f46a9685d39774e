import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from karma.cepstrum import CepstralObservation
from karma.tracker import (
    LinearObservation,
    TrackActivation,
    TrackerParams,
    _blocked,
    _entry_flags,
    _forward,
    _resolve_setup,
    _solve_innovation,
    _symmetrize,
    default_params,
    ekf_filter,
    eks_smooth,
    estimate_transition,
)


def linear_system():
    Q = np.diag([0.3, 0.2])
    H = np.array([[1.0, 0.0], [0.5, 1.0]])
    R = np.diag([0.5, 0.4])
    mu0 = np.array([1.0, -2.0])
    S0 = np.diag([2.0, 1.0])
    params = TrackerParams(
        Q=Q, R=R, mu0=mu0, Sigma0=S0,
        n_formants=1, n_antiformants=0, n_cepstra=2, sample_rate_hz=8000.0,
    )
    return params, LinearObservation(H)


def kalman_oracle(y, params, H):
    """Straight transcription of the filtering and smoothing recursions."""
    T = y.shape[0]
    m, P = params.mu0.copy(), params.Sigma0.copy()
    mf = np.zeros((T, 2)); Pf = np.zeros((T, 2, 2))
    mp = np.zeros((T, 2)); Pp = np.zeros((T, 2, 2))
    for t in range(T):
        P = P + params.Q
        mp[t], Pp[t] = m, P
        S = H @ P @ H.T + params.R
        K = P @ H.T @ np.linalg.inv(S)
        m = m + K @ (y[t] - H @ m)
        P = P - K @ H @ P
        mf[t], Pf[t] = m, P
    ms, Ps = mf.copy(), Pf.copy()
    for t in range(T - 1, 0, -1):
        G = Pf[t - 1] @ np.linalg.inv(Pp[t])
        ms[t - 1] = mf[t - 1] + G @ (ms[t] - mp[t])
        Ps[t - 1] = Pf[t - 1] + G @ (Ps[t] - Pp[t]) @ G.T
    return mf, Pf, ms, Ps


def batch_map_oracle(y, params, H):
    """Posterior mode of the full linear-Gaussian trajectory, one linear solve."""
    T = y.shape[0]
    d = 2
    n = (T + 1) * d
    A = np.zeros((n, n))
    b = np.zeros(n)
    iS0 = np.linalg.inv(params.Sigma0)
    iQ = np.linalg.inv(params.Q)
    iR = np.linalg.inv(params.R)
    A[:d, :d] += iS0
    b[:d] += iS0 @ params.mu0
    for t in range(T):
        i0, i1 = t * d, (t + 1) * d
        A[i0 : i0 + d, i0 : i0 + d] += iQ
        A[i0 : i0 + d, i1 : i1 + d] -= iQ
        A[i1 : i1 + d, i0 : i0 + d] -= iQ
        A[i1 : i1 + d, i1 : i1 + d] += iQ + H.T @ iR @ H
        b[i1 : i1 + d] += H.T @ iR @ y[t]
    return np.linalg.solve(A, b).reshape(T + 1, d)[1:]


class _OracleStore:
    """Every forward-pass quantity per frame, so the reference RTS pass rebuilds nothing."""

    def __init__(self, n_frames: int, dim: int):
        self.m_prev = np.zeros((n_frames, dim))
        self.P_prev = np.zeros((n_frames, dim, dim))
        self.m_pred = np.zeros((n_frames, dim))
        self.P_pred = np.zeros((n_frames, dim, dim))
        self.m_filt = np.zeros((n_frames, dim))
        self.P_filt = np.zeros((n_frames, dim, dim))


def clamp(vec, bounds):
    return vec if bounds is None else np.clip(vec, *bounds)


def with_known(params, entries, values):
    """``params`` with ``entries`` known at ``values``: zero prior and process variance."""
    mu0, Sigma0, Q = params.mu0.copy(), params.Sigma0.copy(), params.Q.copy()
    mu0[entries] = values
    for mat in (Sigma0, Q):
        mat[entries, :] = 0.0
        mat[:, entries] = 0.0
    return replace(params, mu0=mu0, Sigma0=Sigma0, Q=Q)


def lu_solve(S, rhs, warn_label):
    """The tracker's innovation solve before its Cholesky route: LU, then a regularised LU."""
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


def stored_forward(y, params, speech, activation, obs_model):
    """Reference forward pass that stores the moments entering every frame."""
    dim = params.state_dim
    n_frames = y.shape[0]
    bounds = obs_model.state_bounds()
    store = _OracleStore(n_frames, dim)

    m = params.mu0.copy()
    P = params.Sigma0.copy()
    prev_g = np.ones(dim, dtype=bool)

    for t in range(n_frames):
        act_f = activation.formants[t]
        act_a = activation.antiformants[t]
        g = np.concatenate([act_f, act_f, act_a, act_a])

        if (g != prev_g).any():
            P[np.ix_(g, ~g)] = 0.0
            P[np.ix_(~g, g)] = 0.0

        store.m_prev[t] = m
        store.P_prev[t] = P

        block = np.outer(g, g) | np.outer(~g, ~g)
        P = P + np.where(block, params.Q, 0.0)
        m = clamp(m, bounds)
        store.m_pred[t] = m
        store.P_pred[t] = P

        gain_rows = g if speech[t] else np.zeros(dim, dtype=bool)
        if gain_rows.any():
            h_val, H = obs_model.linearize(m, act_f, act_a)
            S = _symmetrize(H @ P @ H.T + params.R)
            PHt = P @ H.T
            PHt[~gain_rows, :] = 0.0
            K = lu_solve(S, PHt, "ekf_filter")
            m = m + K @ (y[t] - h_val)
            P = _symmetrize(P - K @ H @ P)
            m = clamp(m, bounds)

        store.m_filt[t] = m
        store.P_filt[t] = P
        prev_g = g

    return store


def stored_smooth(store, obs_model):
    """Reference RTS pass over a ``stored_forward`` store."""
    bounds = obs_model.state_bounds()
    m_s = store.m_filt.copy()
    P_s = store.P_filt.copy()
    for t in range(m_s.shape[0] - 1, 0, -1):
        P_pred = store.P_pred[t].copy()
        known = np.diag(P_pred) == 0.0
        P_pred[known, known] = 1.0
        S = lu_solve(P_pred, store.P_prev[t], "eks_smooth")
        m_s[t - 1] = store.m_prev[t] + S @ (m_s[t] - store.m_pred[t])
        P_s[t - 1] = _symmetrize(store.P_prev[t] + S @ (P_s[t] - P_pred) @ S.T)
        m_s[t - 1] = clamp(m_s[t - 1], bounds)
    return m_s, P_s


@st.composite
def tracking_problems(draw, min_known=0):
    """Random tracking runs: activation schedules, speech masks, known entries, both models."""
    n_f = draw(st.integers(1, 3))
    n_a = draw(st.integers(0, 2))
    n_frames = draw(st.integers(1, 16))
    dim = 2 * n_f + 2 * n_a
    formants = draw(arrays(bool, (n_frames, n_f)))
    antiformants = draw(arrays(bool, (n_frames, n_a)))
    speech = draw(arrays(bool, n_frames))
    known = draw(st.lists(st.integers(0, dim - 1), min_size=min_known, max_size=2, unique=True))
    linear = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    if linear:
        n_obs = 4
        obs_model = LinearObservation(rng.standard_normal((n_obs, dim)))
        params = TrackerParams(
            Q=np.diag(rng.uniform(0.1, 1.0, dim)),
            R=np.diag(rng.uniform(0.2, 1.0, n_obs)),
            mu0=rng.standard_normal(dim),
            Sigma0=np.diag(rng.uniform(0.5, 2.0, dim)),
            n_formants=n_f,
            n_antiformants=n_a,
            n_cepstra=n_obs,
            sample_rate_hz=8000.0,
        )
        known_values = rng.standard_normal(len(known))
        y = rng.standard_normal((n_frames, n_obs))
    else:
        obs_model = None
        params = default_params(n_f, n_a, 10000.0, 12)
        known_values = params.mu0[known] + rng.uniform(0.0, 50.0, len(known))
        model = CepstralObservation(n_f, n_a, 12, 10000.0)
        truth = params.mu0 + rng.uniform(-100.0, 100.0, dim)
        y = model.value(truth) + 0.05 * rng.standard_normal((n_frames, 12))
    return dict(
        obs=y,
        params=with_known(params, known, known_values),
        mask=speech,
        activation=TrackActivation(formants, antiformants),
        obs_model=obs_model,
    )


def long_schedule_problem(known):
    """A 320-frame cepstral run whose flags flip at frame 0, on consecutive frames and at the end."""
    n_f, n_a, n_frames = 3, 2, 320
    dim = 2 * n_f + 2 * n_a
    rng = np.random.default_rng(2024)
    formants = np.ones((n_frames, n_f), dtype=bool)
    antiformants = np.ones((n_frames, n_a), dtype=bool)
    antiformants[0, 1] = False  # inactive from the first frame
    formants[1:3, 2] = False
    antiformants[40:43, 0] = [False, True, False]  # a flip on every one of these frames
    antiformants[43:120, 0] = False
    formants[150:151, 0] = False
    antiformants[200:260, :] = False
    formants[201, 1] = False
    formants[-1, 1] = False  # the last frame
    antiformants[-1, 0] = False
    speech = np.ones(n_frames, dtype=bool)
    speech[60:80] = False
    speech[299] = False
    params = default_params(n_f, n_a, 10000.0, 12)
    model = CepstralObservation(n_f, n_a, 12, 10000.0)
    truth = params.mu0 + rng.uniform(-100.0, 100.0, dim)
    y = model.value(truth) + 0.05 * rng.standard_normal((n_frames, 12))
    if known:
        params = with_known(params, [4], params.mu0[[4]] + 20.0)
    return dict(
        obs=y,
        params=params,
        mask=speech,
        activation=TrackActivation(formants, antiformants),
        obs_model=None,
    )


class TestStoredRecursionOracle:
    """The history-free forward pass and rebuilt RTS pass equal the stored-moment reference."""

    @staticmethod
    def oracle(problem):
        p = problem
        y, _, speech, activation, obs_model = _resolve_setup(
            p["obs"], p["params"], p["mask"], p["activation"], p["obs_model"]
        )
        store = stored_forward(y, p["params"], speech, activation, obs_model)
        m_s, P_s = stored_smooth(store, obs_model)
        return store, m_s, P_s

    @settings(deadline=None, max_examples=60)
    @given(problem=tracking_problems())
    @example(problem=long_schedule_problem(known=False))
    @example(problem=long_schedule_problem(known=True))
    def test_filter_and_smoother_equal_reference(self, problem):
        # the reference solves by LU and the tracker by Cholesky, so they differ by rounding
        store, m_s, P_s = self.oracle(problem)
        filt = ekf_filter(**problem)
        smth = eks_smooth(**problem)
        pairs = [
            (filt.means, store.m_filt),
            (filt.covariances, store.P_filt),
            (smth.means, m_s),
            (smth.covariances, P_s),
        ]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @settings(deadline=None, max_examples=40)
    @given(problem=tracking_problems(min_known=1))
    def test_known_entries_hold_their_value(self, problem):
        params = problem["params"]
        known = np.flatnonzero(np.diag(params.Sigma0) == 0.0)
        for res in (ekf_filter(**problem), eks_smooth(**problem)):
            assert np.all(res.means[:, known] == params.mu0[known])
            assert np.all(res.covariances[:, known, :] == 0.0)
            assert np.all(res.covariances[:, :, known] == 0.0)

    @settings(deadline=None, max_examples=30)
    @given(problem=tracking_problems(), data=st.data())
    def test_filter_prefix_is_causal(self, problem, data):
        n_frames = problem["obs"].shape[0]
        k = data.draw(st.integers(1, n_frames))
        full = ekf_filter(**problem)
        prefix = dict(
            problem,
            obs=problem["obs"][:k],
            mask=problem["mask"][:k],
            activation=TrackActivation(
                problem["activation"].formants[:k], problem["activation"].antiformants[:k]
            ),
        )
        head = ekf_filter(**prefix)
        assert np.array_equal(head.means, full.means[:k])
        assert np.array_equal(head.covariances, full.covariances[:k])


@st.composite
def predict_problems(draw):
    """Linear runs with dense, exactly symmetric Sigma0 and Q and random
    activation flags; now and then Sigma0 or Q is not quite symmetric, which
    ``TrackerParams`` symmetrises."""
    n_f = draw(st.integers(1, 3))
    n_a = draw(st.integers(0, 2))
    n_frames = draw(st.integers(1, 16))
    dim = 2 * n_f + 2 * n_a
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, dim, dim))
    Q = _symmetrize(0.1 * a @ a.T)
    Sigma0 = _symmetrize(b @ b.T) + np.eye(dim)
    for mat in (Q, Sigma0):
        if draw(st.booleans()):
            mat[0, 1] += 1e-3
    params = TrackerParams(
        Q=Q,
        R=np.diag(rng.uniform(0.2, 1.0, 4)),
        mu0=rng.standard_normal(dim),
        Sigma0=Sigma0,
        n_formants=n_f,
        n_antiformants=n_a,
        n_cepstra=4,
        sample_rate_hz=8000.0,
    )
    return dict(
        obs=rng.standard_normal((n_frames, 4)),
        params=params,
        mask=draw(arrays(bool, n_frames)),
        activation=TrackActivation(
            draw(arrays(bool, (n_frames, n_f))), draw(arrays(bool, (n_frames, n_a)))
        ),
        obs_model=LinearObservation(rng.standard_normal((4, dim))),
    )


class TestIdentityPredict:
    """The random walk's predict keeps the clamped mean and adds the blocked Q to P."""

    @settings(deadline=None, max_examples=80)
    @given(problem=predict_problems())
    def test_predict_adds_q(self, problem):
        params = problem["params"]
        y, _, speech, activation, obs_model = _resolve_setup(
            problem["obs"], params, problem["mask"], problem["activation"], problem["obs_model"]
        )
        flags = _entry_flags(activation)
        m, P = params.mu0, params.Sigma0
        steps = _forward(y, params, speech, activation, obs_model)
        for t, (m_pred, P_pred, m_filt, P_filt) in enumerate(steps):
            g = flags[t]
            if t == 0 or np.any(g != flags[t - 1]):
                P = _blocked(P, g)
            assert np.array_equal(m_pred, clamp(m, obs_model.state_bounds()))
            assert np.array_equal(P_pred, P + _blocked(params.Q, g))
            assert np.array_equal(P_pred, P_pred.T)
            m, P = m_filt, P_filt

    @pytest.mark.parametrize("name", ["Q", "Sigma0"])
    def test_lopsided_input_comes_out_symmetric(self, name):
        mat = np.array([[2.0, 0.3], [0.1, 1.0]])
        mats = {"Q": np.eye(2), "Sigma0": np.eye(2), name: mat}
        params = TrackerParams(
            R=np.eye(2), mu0=np.zeros(2), n_formants=1, n_antiformants=0,
            n_cepstra=2, sample_rate_hz=8000.0, **mats
        )
        got = getattr(params, name)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got, _symmetrize(mat))


def spd_system(rng, n=15, d=6):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n), rng.standard_normal((d, n))


def indefinite_system(rng, n=15, d=6):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    return _symmetrize(Q @ np.diag(eig) @ Q.T), rng.standard_normal((d, n))


class TestSolveInnovation:
    """Each route of the gain solve: Cholesky, the LU fallback and the regularised LU."""

    def test_positive_definite_matches_lu(self):
        S, rhs = spd_system(np.random.default_rng(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _solve_innovation(S, rhs, "test")
        want = np.linalg.solve(S, rhs.T).T
        assert np.abs(sol - want).max() <= 1e-12 * np.abs(want).max()

    def test_indefinite_falls_back_to_lu(self):
        S, rhs = indefinite_system(np.random.default_rng(31))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _solve_innovation(S, rhs, "test")
        assert np.array_equal(sol, np.linalg.solve(S.T, rhs.T).T)

    def test_singular_is_regularized_with_a_warning(self):
        S = np.diag([1.0, 0.0, 2.0])
        rhs = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.warns(UserWarning, match="singular innovation covariance in test"):
            sol = _solve_innovation(S, rhs, "test")
        assert np.all(np.isfinite(sol))
        assert np.array_equal(sol[1], np.zeros(3))

    @pytest.mark.parametrize("system", [spd_system, indefinite_system])
    def test_zero_rows_give_zero_gain_rows(self, system):
        S, rhs = system(np.random.default_rng(32))
        rhs[[1, 4]] = 0.0
        sol = _solve_innovation(S, rhs, "test")
        assert np.array_equal(sol[[1, 4]], np.zeros((2, S.shape[0])))
        assert np.all(sol[[0, 2, 3, 5]] != 0.0)


class TestLinearSurrogate:
    def test_filter_matches_closed_form(self):
        params, obs_model = linear_system()
        y = np.random.default_rng(3).standard_normal((30, 2)) * 2.0
        res = ekf_filter(y, params, obs_model=obs_model)
        mf, Pf, _, _ = kalman_oracle(y, params, obs_model.H)
        assert np.abs(res.means - mf).max() < 1e-10
        assert np.abs(res.covariances - Pf).max() < 1e-10

    def test_smoother_matches_closed_form_and_map(self):
        params, obs_model = linear_system()
        y = np.random.default_rng(4).standard_normal((25, 2))
        res = eks_smooth(y, params, obs_model=obs_model)
        _, _, ms, Ps = kalman_oracle(y, params, obs_model.H)
        assert np.abs(res.means - ms).max() < 1e-8
        assert np.abs(res.covariances - Ps).max() < 1e-8
        assert np.abs(res.means - batch_map_oracle(y, params, obs_model.H)).max() < 1e-8

    def test_single_frame_smooth_equals_filter(self):
        params, obs_model = linear_system()
        y = np.array([[0.4, -0.2]])
        filt = ekf_filter(y, params, obs_model=obs_model)
        smth = eks_smooth(y, params, obs_model=obs_model)
        assert np.array_equal(filt.means, smth.means)
        assert np.array_equal(filt.covariances, smth.covariances)

    def test_smoothing_never_increases_marginal_trace(self):
        params, obs_model = linear_system()
        y = np.random.default_rng(5).standard_normal((40, 2))
        filt = ekf_filter(y, params, obs_model=obs_model)
        smth = eks_smooth(y, params, obs_model=obs_model)
        tr_f = np.trace(filt.covariances, axis1=1, axis2=2)
        tr_s = np.trace(smth.covariances, axis1=1, axis2=2)
        assert np.all(tr_s <= tr_f + 1e-9)

    def test_masked_run_is_pure_prediction(self):
        params, obs_model = linear_system()
        y = np.random.default_rng(6).standard_normal((10, 2))
        res = ekf_filter(y, params, mask=np.zeros(10, bool), obs_model=obs_model)
        expected = np.zeros((10, 2))
        m = params.mu0.copy()
        for t in range(10):
            expected[t] = m
        assert np.abs(res.means - expected).max() == 0.0

    def test_vanishing_process_noise_monotone_convergence(self):
        H = np.eye(2)
        truth = np.array([3.0, -1.0])
        y = np.tile(truth, (50, 1))
        params = TrackerParams(
            Q=1e-12 * np.eye(2), R=0.0025 * np.eye(2),
            mu0=np.zeros(2), Sigma0=np.eye(2),
            n_formants=1, n_antiformants=0, n_cepstra=2, sample_rate_hz=8000.0,
        )
        res = ekf_filter(y, params, obs_model=LinearObservation(H))
        err = np.linalg.norm(res.means - truth, axis=1)
        assert np.all(np.diff(err) <= 1e-12)
        assert err[-1] < err[0] / 10


class TestCepstralTracking:
    def setup_method(self):
        self.params = default_params(2, 1, 10000.0, 12, hop_s=0.05)
        self.model = CepstralObservation(2, 1, 12, 10000.0)
        truth = np.array([300.0, 1800.0, 50.0, 110.0, 1200.0, 60.0])
        rng = np.random.default_rng(11)
        self.obs = np.vstack(
            [self.model.value(truth) + 0.02 * rng.standard_normal(12) for _ in range(40)]
        )
        self.truth = truth

    def test_deterministic_bit_identical(self):
        a = eks_smooth(self.obs, self.params)
        b = eks_smooth(self.obs, self.params)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_posterior_covariances_psd(self):
        res = eks_smooth(self.obs, self.params)
        for P in res.covariances:
            assert np.abs(P - P.T).max() < 1e-10
            assert np.linalg.eigvalsh(P).min() >= -1e-9

    def test_converges_to_truth(self):
        res = eks_smooth(self.obs, self.params)
        assert np.abs(res.means[-1, :2] - self.truth[:2]).max() < 25.0
        assert abs(res.means[-1, 4] - self.truth[4]) < 40.0

    def test_coasting_grows_frequency_trace(self):
        mask = np.ones(40, bool)
        mask[20:] = False
        res = ekf_filter(self.obs, self.params, mask=mask)
        freq_cols = [0, 1, 4]
        tr = res.variances[:, freq_cols].sum(axis=1)
        assert np.all(np.diff(tr[20:]) >= -1e-9)

    def test_all_active_matches_no_activation(self):
        activation = TrackActivation.all_active(40, 2, 1)
        a = eks_smooth(self.obs, self.params, activation=activation)
        b = eks_smooth(self.obs, self.params)
        assert np.array_equal(a.means, b.means)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_returning_track_keeps_coasted_moments(self, run):
        activation = TrackActivation.all_active(40, 2, 1)
        activation.antiformants[10:30, 0] = False  # inactive on frames 10-29, back at 30
        mask = np.ones(40, bool)
        mask[10:] = False  # no observations after frame 9
        res = run(self.obs, self.params, mask=mask, activation=activation)
        entries = [4, 5]  # the antiformant's frequency and bandwidth
        q = np.diag(self.params.Q)[entries]
        for k in range(1, 31):
            grown = res.variances[9, entries] + k * q
            assert np.array_equal(res.means[9 + k, entries], res.means[9, entries])
            assert res.variances[9 + k, entries] == pytest.approx(grown, rel=1e-12)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_activation_width_checked(self, run):
        activation = TrackActivation.all_active(40, 3, 0)
        match = "3 formant and 0 antiformant columns; params track 2 formants and 1 antiformants"
        with pytest.raises(ValueError, match=match):
            run(self.obs, self.params, activation=activation)

    def test_frozen_entries_pinned(self):
        params = with_known(self.params, [2, 3], [50.0, 110.0])
        res = eks_smooth(self.obs, params)
        assert np.all(res.means[:, 2] == 50.0)
        assert np.all(res.means[:, 3] == 110.0)
        assert np.all(res.variances[:, 2] == 0.0)


class TestEstimateTransition:
    def test_recovers_known_transition(self):
        rng = np.random.default_rng(8)
        d = 3
        F = rng.standard_normal((d, d))
        F *= 0.9 / np.abs(np.linalg.eigvals(F)).max()
        x = np.zeros((60, d))
        x[0] = rng.standard_normal(d) * 10
        for t in range(59):
            x[t + 1] = F @ x[t]
        F_hat = estimate_transition(x)
        assert np.abs(F_hat - F).max() < 1e-8

    def test_constant_tracks_fall_back_to_identity(self):
        tracks = np.tile([500.0, 1500.0], (40, 1))
        with pytest.warns(UserWarning, match="rank"):
            F = estimate_transition(tracks)
        assert np.array_equal(F, np.eye(2))

    def test_white_noise_tracks_near_zero(self):
        tracks = np.random.default_rng(9).standard_normal((10000, 3))
        F = estimate_transition(tracks)
        assert np.abs(F).max() < 0.05

    def test_spectral_radius_clipped(self):
        rng = np.random.default_rng(10)
        x = np.zeros((50, 2))
        x[0] = [1.0, 1.0]
        G = np.array([[1.05, 0.0], [0.0, 0.5]])
        for t in range(49):
            x[t + 1] = G @ x[t]
        F = estimate_transition(x)
        assert np.abs(np.linalg.eigvals(F)).max() <= 0.999 + 1e-12

    def test_requires_enough_frames(self):
        with pytest.raises(ValueError, match="2\\*states"):
            estimate_transition(np.ones((3, 2)))

    @pytest.mark.parametrize("length", [29, 31])
    def test_speech_mask_length_checked(self, length):
        tracks = np.random.default_rng(12).standard_normal((30, 2))
        with pytest.raises(ValueError, match="activity mask length"):
            estimate_transition(tracks, speech=np.ones(length, bool))


class TestDefaultParams:
    def test_three_formant_means(self):
        p = default_params(3, 0, 7000.0, 15)
        assert p.mu0.tolist() == [500.0, 1500.0, 2500.0, 80.0, 120.0, 160.0]

    def test_observation_noise_inverse_index(self):
        p = default_params(3, 0, 7000.0, 15)
        assert p.R[3, 3] == pytest.approx(0.25)
        assert p.R[0, 0] == pytest.approx(1.0)

    def test_antiformant_defaults(self):
        p = default_params(3, 2, 8000.0, 20)
        assert p.mu0[6:8].tolist() == [1000.0, 2000.0]
        assert p.mu0[8:10].tolist() == [80.0, 80.0]

    def test_sigma0_equals_q(self):
        p = default_params(2, 1, 10000.0, 12)
        assert np.array_equal(p.Sigma0, p.Q)
        assert p.Q[0, 0] == pytest.approx(320.0**2)
        assert p.Q[2, 2] == pytest.approx(100.0**2)
