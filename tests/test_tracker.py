import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import karma.frontend
import karma.pipeline
import karma.tracker
from karma.cepstrum import CepstralObservation
from karma.frontend import _row_blocks
from karma.particle import BenchmarkSetup, pf_track
from karma.pipeline import RunConfig, make_tracker_params, track_waveform
from karma.synthesis import nasal_utterance_spec, synthesize
from karma.tracker import (
    TrackActivation,
    TrackerParams,
    _blocked,
    _clamp,
    _filtered,
    _flag_changes,
    _resolve_setup,
    _rts_gains,
    _symmetrize,
    _umath_linalg,
    _whitener,
    default_params,
    ekf_filter,
    eks_smooth,
    estimate_transition,
)

from conftest import LinearObservation, batch_map_oracle, kalman_oracle, linear_system


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
            h_val, H = obs_model.linearize(m, g)
            H = H * g  # an inactive entry is unobserved, whatever the model's Jacobian
            S = _symmetrize(H @ P @ H.T + params.R)
            PHt = P @ H.T
            PHt[~gain_rows, :] = 0.0
            K = np.linalg.solve(S.T, PHt.T).T
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
        S = np.linalg.solve(P_pred.T, store.P_prev[t].T).T
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


def dense_noise_problem():
    """A linear run with dense Q and Sigma0, whose couplings the activation changes cut."""
    n_f, n_a, dim, n_frames, n_obs = 2, 1, 6, 40, 4
    rng = np.random.default_rng(77)
    A, B = rng.standard_normal((2, dim, dim))
    return dict(
        obs=rng.standard_normal((n_frames, n_obs)),
        params=TrackerParams(
            Q=0.1 * (A @ A.T + np.eye(dim)), R=0.5 * np.eye(n_obs), mu0=rng.standard_normal(dim),
            Sigma0=B @ B.T / dim + np.eye(dim), n_formants=n_f, n_antiformants=n_a,
            n_cepstra=n_obs, sample_rate_hz=8000.0,
        ),
        mask=rng.random(n_frames) < 0.8,
        activation=TrackActivation(rng.random((n_frames, n_f)) < 0.7, rng.random((n_frames, n_a)) < 0.6),
        obs_model=LinearObservation(rng.standard_normal((n_obs, dim))),
    )


class TestStoredRecursionOracle:
    """The history-free forward pass and rebuilt RTS pass equal the stored-moment reference."""

    @staticmethod
    def oracle(problem):
        p = problem
        y, speech, activation, _, obs_model = _resolve_setup(
            p["obs"], p["params"], p["mask"], p["activation"], p["obs_model"]
        )
        store = stored_forward(y, p["params"], speech, activation, obs_model)
        m_s, P_s = stored_smooth(store, obs_model)
        return store, m_s, P_s

    @settings(deadline=None, max_examples=60)
    @given(problem=tracking_problems())
    @example(problem=long_schedule_problem(known=False))
    @example(problem=long_schedule_problem(known=True))
    @example(problem=dense_noise_problem())
    def test_filter_and_smoother_equal_reference(self, problem):
        # the reference rebuilds nothing and solves each gain alone, so they may differ by rounding
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


def frozen_forward(y, params, speech, flags, obs_model):
    """The forward pass as a generator of the filtered ``(m, P)`` per frame,
    each update solved by ``np.linalg.solve``: frozen as the reference
    whose bits ``_filtered`` keeps."""
    bounds = obs_model.state_bounds()
    rebuild = _flag_changes(flags)
    update = speech & flags.any(axis=1)
    free = ~params.known
    W = _whitener(params.R)
    dim = params.state_dim
    stacked = np.empty((params.n_cepstra, dim + 1))  # [H | y_t - h]
    work = np.empty((dim, 2 * dim + 1))  # [A | P Gᵀ eps | P]

    m, P = _clamp(params.mu0.copy(), bounds), params.Sigma0
    for t, g in enumerate(flags):
        if rebuild[t]:
            P = _blocked(P, g)
            Q = _blocked(params.Q, g)
            active = None if g.all() else g
            unobserved = ~(g & free)
            if not unobserved.any():
                unobserved = None
        P = P + Q

        if update[t]:
            h_val, H = obs_model.linearize(m, active)
            stacked[:, :dim] = H
            np.subtract(y[t], h_val, out=stacked[:, dim])
            G_eps = W @ stacked  # [G | eps]
            G = G_eps[:, :dim]
            if unobserved is not None:
                G[:, unobserved] = 0.0
            np.matmul(P, G.T @ G_eps, out=work[:, : dim + 1])  # [P GᵀG | P Gᵀ eps]
            work[:, dim + 1 :] = P
            work.flat[:: 2 * dim + 2] += 1.0  # A = I + P GᵀG
            X = np.linalg.solve(work[:, :dim], work[:, dim:])
            m = _clamp(m + X[:, 0], bounds)
            P = _symmetrize(X[:, 1:])

        yield m, P


def frozen_rts(m_s, P_s, flags, params, bounds):
    """The RTS backward pass as a loop over frames, in place over the
    filtered moments ``m_s``/``P_s``, with each block's gains from
    ``_rts_gains``: frozen as the sequential rule that ``eks_smooth``'s
    blocked scan keeps to rounding."""
    known = params.known
    # m_s/P_s hold the filtered moments until the backward pass reaches
    # them.  A block smooths frames ``rows`` with the gains of frames ``rows`` + 1.
    for rows in reversed(_row_blocks(len(m_s) - 1, karma.tracker._GAIN_BLOCK_DIVISOR * P_s[:1].nbytes)):
        after = slice(rows.start + 1, rows.stop + 1)
        P_prev, P_pred, gains = _rts_gains(P_s[rows], flags[after], params.Q, known)
        for k in range(len(gains) - 1, -1, -1):
            t, G = rows.start + k, gains[k]
            m = m_s[t]
            m_s[t] = _clamp(m + G @ (m_s[t + 1] - m), bounds)
            P_s[t] = _symmetrize(P_prev[k] + G @ (P_s[t + 1] - P_pred[k]) @ G.T)
        del P_prev, P_pred, gains  # before the next block's stacks exist
    return m_s, P_s


def oracle_problem():
    """One draw of ``ekf_pf_benchmark``'s setup: known bandwidths, the cepstral model."""
    setup = BenchmarkSetup()
    _, obs = setup.simulate(np.random.default_rng(3))
    return dict(obs=obs, params=setup.make_params(), mask=None, activation=None, obs_model=None)


@settings(deadline=None, max_examples=40)
@given(problem=tracking_problems())
@example(problem=long_schedule_problem(known=False))
@example(problem=long_schedule_problem(known=True))
@example(problem=dense_noise_problem())
@example(problem=oracle_problem())
def test_forward_pass_keeps_the_frozen_bits(problem):
    # flag changes, inactive entries and coasting frames in the long
    # schedule; known entries there and in the oracle; both observation models
    y, speech, _, flags, obs_model = _resolve_setup(**problem)
    means, covs = _filtered(y, problem["params"], speech, flags, obs_model)
    frozen = list(frozen_forward(y, problem["params"], speech, flags, obs_model))
    assert np.array_equal(means, np.array([m for m, _ in frozen]))
    assert np.array_equal(covs, np.array([P for _, P in frozen]))


class TestDirectSolve:
    """The update and the smoother's gains solve with LAPACK's gesv gufunc,
    the one ``np.linalg.solve`` wraps, called directly."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_same_bits_as_numpy_solve(self, d):
        rng = np.random.default_rng(d)
        for k in range(1, 2 * d + 2):
            work = rng.standard_normal((d, d + k))
            A, rhs = work[:, :d], work[:, d:]  # strided views, as the update passes them
            stack = rng.standard_normal((7, d + k, d)).swapaxes(1, 2)  # transposed views, as the smoother's
            cases = [(A, rhs), (A.copy(), rhs.copy()), (stack[:, :, :d], stack[:, :, d:])]
            cases.append(tuple(np.ascontiguousarray(m) for m in cases[-1]))  # as the ARMA fit passes them
            for a, b in cases:
                assert np.array_equal(_umath_linalg.solve(a, b, signature="dd->d"), np.linalg.solve(a, b))

    @settings(deadline=None, max_examples=100)
    @given(d=st.integers(1, 10), n=st.integers(1, 15), data=st.data())
    def test_update_system_is_regular(self, d, n, data):
        # P up to about 1e7 and G up to 10, far beyond the tracker's (P about
        # 2e5 Hz² and G about 1e-2 per Hz at most on the bench's 60 s item)
        factor = data.draw(arrays(float, (d, d), elements=st.floats(-1e3, 1e3)))
        G = data.draw(arrays(float, (n, d), elements=st.floats(-10.0, 10.0)))
        eps = data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
        P = factor @ factor.T
        known = data.draw(arrays(bool, d))  # zero rows and columns in P
        P[known, :] = 0.0
        P[:, known] = 0.0
        G[:, known | data.draw(arrays(bool, d))] = 0.0  # and inactive entries' columns
        A = np.eye(d) + P @ (G.T @ G)
        rhs = np.column_stack([P @ (G.T @ eps), P])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = _umath_linalg.solve(A, rhs, signature="dd->d")
        assert np.all(np.isfinite(X))

    def test_singular_member_gives_nan_and_leaves_the_others(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((6, 5, 5)), rng.standard_normal((6, 5, 2))
        a[[1, 4], :, 2] = 0.0  # a zero column: exactly singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)
        with np.errstate(invalid="ignore"):
            x = _umath_linalg.solve(a, b, signature="dd->d")
        assert np.isnan(x[[1, 4]]).all()
        regular = [0, 2, 3, 5]
        assert np.array_equal(x[regular], np.linalg.solve(a[regular], b[regular]))


@st.composite
def predict_problems(draw):
    """Linear runs with dense, exactly symmetric Sigma0 and Q and random
    activation flags; now and then Sigma0 or Q is not quite symmetric, which
    ``TrackerParams`` symmetrises (and still positive semidefinite, which
    it checks)."""
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
            mat += 1e-3 * np.eye(dim)  # outweighs the ±0.5e-3 that the asymmetry adds
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
        y, speech, _, flags, obs_model = _resolve_setup(
            problem["obs"], params, problem["mask"], problem["activation"], problem["obs_model"]
        )
        means, covs = _filtered(y, params, speech, flags, obs_model)
        m, P = params.mu0, params.Sigma0
        for t, g in enumerate(flags):
            # a frame with no update stores its predicted moments; the frames
            # before it are unchanged, since the pass is causal
            coast = speech.copy()
            coast[t] = False
            coast_means, coast_covs = _filtered(y, params, coast, flags, obs_model)
            m_pred, P_pred = coast_means[t], coast_covs[t]
            if t == 0 or np.any(g != flags[t - 1]):
                P = _blocked(P, g)
            assert np.array_equal(m_pred, clamp(m, obs_model.state_bounds()))
            assert np.array_equal(P_pred, P + _blocked(params.Q, g))
            assert np.array_equal(P_pred, P_pred.T)
            m, P = means[t], covs[t]

    @pytest.mark.parametrize("name", ["Q", "Sigma0", "R"])
    def test_lopsided_input_comes_out_symmetric(self, name):
        mat = np.array([[2.0, 0.3], [0.1, 1.0]])
        mats = {"Q": np.eye(2), "Sigma0": np.eye(2), "R": np.eye(2), name: mat}
        params = TrackerParams(
            mu0=np.zeros(2), n_formants=1, n_antiformants=0,
            n_cepstra=2, sample_rate_hz=8000.0, **mats
        )
        got = getattr(params, name)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got, _symmetrize(mat))


class TestInitialClamp:
    """``mu0`` is clamped to the state bounds once, before frame 0; after
    that only the update moves the mean, and it ends clamped."""

    def setup_method(self):
        # 10 Hz and 3600 Hz lie outside (35, 3465) Hz at 7 kHz; 0.5 Hz is below the 1 Hz floor
        config = RunConfig(initial_formant_freqs=[10.0, 1500.0, 3600.0],
                           initial_formant_bws=[0.5, 120.0, 160.0])
        self.params = make_tracker_params(config, 0.01)
        self.model = CepstralObservation(3, 0, 15, 7000.0)
        self.clamped = clamp(self.params.mu0, self.model.state_bounds())
        assert not np.array_equal(self.clamped, self.params.mu0)
        truth = np.array([600.0, 1500.0, 2500.0, 80.0, 120.0, 160.0])
        rng = np.random.default_rng(5)
        self.obs = self.model.value(truth) + 0.05 * rng.standard_normal((12, 15))

    def test_first_prediction_is_clamped_mu0(self):
        # frame 0 is silent, so the pass stores its predicted moments there
        mask = np.ones(len(self.obs), bool)
        mask[0] = False
        y, speech, _, flags, obs_model = _resolve_setup(self.obs, self.params, mask, None, None)
        m_pred = _filtered(y, self.params, speech, flags, obs_model)[0][0]
        assert np.array_equal(m_pred, self.clamped)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_run_equals_run_from_clamped_mu0(self, run):
        a = run(self.obs, self.params)
        b = run(self.obs, replace(self.params, mu0=self.clamped))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_params_are_left_unclamped(self, run):
        mu0 = self.params.mu0.copy()
        run(self.obs, self.params)
        assert np.array_equal(self.params.mu0, mu0)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_silent_run_holds_clamped_mu0(self, run):
        res = run(self.obs, self.params, mask=np.zeros(len(self.obs), bool))
        assert np.array_equal(res.means, np.tile(self.clamped, (len(self.obs), 1)))


CORRELATED_R = np.array([[0.5, 0.2], [0.2, 0.4]])


class TestLinearSurrogate:
    @pytest.mark.parametrize("R", [None, CORRELATED_R], ids=["diagonal-r", "correlated-r"])
    def test_filter_matches_closed_form(self, R):
        params, obs_model = linear_system()
        params = params if R is None else replace(params, R=R)
        y = np.random.default_rng(3).standard_normal((30, 2)) * 2.0
        res = ekf_filter(y, params, obs_model=obs_model)
        mf, Pf, _, _ = kalman_oracle(y, params, obs_model.H)
        assert np.abs(res.means - mf).max() < 1e-10
        assert np.abs(res.covariances - Pf).max() < 1e-10

    @pytest.mark.parametrize("R", [None, CORRELATED_R], ids=["diagonal-r", "correlated-r"])
    def test_smoother_matches_closed_form_and_map(self, R):
        params, obs_model = linear_system()
        params = params if R is None else replace(params, R=R)
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
    def test_inactive_entries_stay_decoupled_under_a_flag_blind_model(self, run):
        # LinearObservation's Jacobian ignores the flags: the tracker itself
        # must drop the inactive entries' columns.  The antiformant is off
        # from frame 1 to the end, so no later frame couples it in the smoother.
        params = TrackerParams(
            Q=np.diag([0.3, 0.2, 0.3, 0.2]), R=np.diag([0.5, 0.4, 0.3]), mu0=[1.0, -2.0, 0.5, 1.5],
            Sigma0=np.diag([2.0, 1.0, 2.0, 1.0]), n_formants=1, n_antiformants=1, n_cepstra=3,
            sample_rate_hz=8000.0,
        )
        H = np.array([[1.0, 0.0, 0.5, 0.0], [0.5, 1.0, 0.0, 0.3], [0.0, 0.2, 1.0, 1.0]])
        activation = TrackActivation.all_active(4, 1, 1)
        activation.antiformants[1:, 0] = False
        y = np.random.default_rng(13).standard_normal((4, 3))
        res = run(y, params, activation=activation, obs_model=LinearObservation(H))
        for t in range(1, 4):
            assert np.all(res.covariances[t, :2, 2:] == 0.0)
            assert np.all(res.covariances[t, 2:, :2] == 0.0)
        if run is ekf_filter:  # the inactive antiformant only coasts
            assert np.array_equal(res.means[1:, 2:], np.tile(res.means[0, 2:], (3, 1)))

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth])
    def test_activation_width_checked(self, run):
        activation = TrackActivation.all_active(40, 3, 0)
        match = "3 formant and 0 antiformant columns; params track 2 formants and 1 antiformants"
        with pytest.raises(ValueError, match=match):
            run(self.obs, self.params, activation=activation)

    @pytest.mark.parametrize("width", [1, 11, 13])
    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth, pf_track])
    def test_observation_width_checked(self, run, width):
        match = f"observations have {width} columns; params expect 12 cepstra"
        with pytest.raises(ValueError, match=match):
            run(self.obs[:, :1].repeat(width, axis=1), self.params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth, pf_track])
    def test_non_finite_speech_observation_rejected(self, run, bad):
        obs = self.obs.copy()
        obs[5, 3] = bad
        obs[9] = bad
        with pytest.raises(ValueError, match="non-finite observation at speech frame 5"):
            run(obs, self.params)

    @pytest.mark.parametrize("run", [ekf_filter, eks_smooth, pf_track])
    def test_non_finite_silent_observation_unused(self, run):
        mask = np.ones(len(self.obs), bool)
        mask[5] = False
        obs = self.obs.copy()
        obs[5] = np.nan
        res = run(obs, self.params, mask=mask)
        obs[5] = 0.0
        ref = run(obs, self.params, mask=mask)
        assert np.array_equal(res.means, ref.means)
        assert np.array_equal(res.covariances, ref.covariances)

    def test_frozen_entries_pinned(self):
        params = with_known(self.params, [2, 3], [50.0, 110.0])
        res = eks_smooth(self.obs, params)
        assert np.all(res.means[:, 2] == 50.0)
        assert np.all(res.means[:, 3] == 110.0)
        assert np.all(res.variances[:, 2] == 0.0)


def traced_peak(run, *args):
    """``run(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_smoother_stores_no_more_than_the_filter():
    """The RTS pass runs in place over the filter's output: no second (T, d, d) stack."""
    n_f, n_a, n_frames = 3, 2, 2000
    rng = np.random.default_rng(21)
    params = default_params(n_f, n_a, 10000.0, 12)
    model = CepstralObservation(n_f, n_a, 12, 10000.0)
    truth = params.mu0 + rng.uniform(-100.0, 100.0, params.state_dim)
    y = model.value(truth) + 0.05 * rng.standard_normal((n_frames, 12))
    activation = TrackActivation(
        np.ones((n_frames, n_f), bool), rng.random((n_frames, n_a)) < 0.7
    )
    filt, filt_peak = traced_peak(ekf_filter, y, params, None, activation)
    smth, smth_peak = traced_peak(eks_smooth, y, params, None, activation)
    assert smth_peak <= 1.1 * filt_peak
    assert np.array_equal(smth.means[-1], filt.means[-1])
    assert np.array_equal(smth.covariances[-1], filt.covariances[-1])


class TestStackedGains:
    """The RTS gains come from one stacked solve per block of frames."""

    @staticmethod
    def block_budget(params, frames):
        """A ``frontend._BLOCK_BYTES`` that gives the smoother blocks of ``frames`` frames."""
        return karma.tracker._GAIN_BLOCK_DIVISOR * 8 * params.state_dim**2 * frames

    @pytest.mark.parametrize("known", [False, True])
    def test_small_blocks_equal_one_block(self, monkeypatch, known):
        problem = long_schedule_problem(known)  # 320 frames: 319 gains, 45 blocks of 7 and 4
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", self.block_budget(problem["params"], 320))
        whole = eks_smooth(**problem)
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", self.block_budget(problem["params"], 7))
        blocked = eks_smooth(**problem)
        for got, want in [(blocked.means, whole.means), (blocked.covariances, whole.covariances)]:
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize(
        "Q, Sigma0",
        [
            # H = 0 would leave every filtered covariance at the rank-one Sigma0, and Q = 0 adds nothing
            (np.zeros((2, 2)), np.ones((2, 2))),
            # entry 2 is known; the free entries 0 and 1 share the null direction (1, -1)
            (np.zeros((4, 4)), np.block([[np.ones((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([0.0, 3.0])]])),
            # rank-deficient Q and Sigma0, neither with a zero diagonal, whose ranges miss (1, -1, 0, 0)
            (np.block([[0.5 * np.ones((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]),
             np.block([[2.0 * np.ones((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])),
        ],
        ids=["zero-q-rank-one-sigma0", "singular-beside-a-known-entry", "shared-null-direction"],
    )
    def test_singular_priors_are_rejected(self, Q, Sigma0):
        # each would make some predicted covariance singular, so some gain solve would fail
        n_f = len(Q) // 2
        with pytest.raises(ValueError, match=r"^Sigma0 \+ Q on the entries that are not known must be positive definite"):
            TrackerParams(
                Q=Q, R=np.eye(2), mu0=np.ones(2 * n_f), Sigma0=Sigma0,
                n_formants=n_f, n_antiformants=0, n_cepstra=2, sample_rate_hz=8000.0,
            )

    def test_known_entries_get_zero_gains(self):
        problem = long_schedule_problem(known=True)  # entry 4 is known
        params = problem["params"]
        y, speech, activation, flags, obs_model = _resolve_setup(
            problem["obs"], params, problem["mask"], problem["activation"], None
        )
        filt = ekf_filter(y, params, speech, activation, obs_model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, P_pred, gains = _rts_gains(filt.covariances[:-1], flags[1:], params.Q, params.known)
        assert np.flatnonzero(params.known).tolist() == [4]
        assert np.all(P_pred[:, 4, 4] == 1.0)
        assert np.all(gains[:, 4, :] == 0.0) and np.all(gains[:, :, 4] == 0.0)
        assert np.all(np.abs(gains[:, :4, :4]).max(axis=(1, 2)) > 0.0)


@st.composite
def regular_prior_problems(draw):
    """Random runs under dense priors: random known entries, and a Q or a
    Sigma0 of deficient rank on the other entries, whose sum is positive
    definite there; random activation and speech; both observation models."""
    n_f = draw(st.integers(1, 3))
    n_a = draw(st.integers(0, 2))
    n_frames = draw(st.integers(1, 16))
    dim = 2 * n_f + 2 * n_a
    known = draw(st.lists(st.integers(0, dim - 1), max_size=min(2, dim - 1), unique=True))
    free = np.setdiff1d(np.arange(dim), known)
    deficient_rank = draw(st.integers(0, free.size - 1))
    ranks = [deficient_rank, draw(st.integers(free.size - deficient_rank, free.size))]
    if draw(st.booleans()):
        ranks.reverse()
    linear = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    if linear:
        n_obs, scales = 4, np.ones(free.size)
        obs_model = LinearObservation(rng.standard_normal((n_obs, dim)))
        base = TrackerParams(
            Q=np.eye(dim), R=np.diag(rng.uniform(0.2, 1.0, n_obs)), mu0=rng.standard_normal(dim),
            Sigma0=np.eye(dim), n_formants=n_f, n_antiformants=n_a, n_cepstra=n_obs, sample_rate_hz=8000.0,
        )
        y = rng.standard_normal((n_frames, n_obs))
    else:
        n_obs, obs_model = 12, None
        base = default_params(n_f, n_a, 10000.0, n_obs)
        scales = np.sqrt(np.diag(base.Q))[free]  # the default process stds
        model = CepstralObservation(n_f, n_a, n_obs, 10000.0)
        truth = base.mu0 + rng.uniform(-100.0, 100.0, dim)
        y = model.value(truth) + 0.05 * rng.standard_normal((n_frames, n_obs))
    Q, Sigma0 = np.zeros((2, dim, dim))
    for mat, rank in zip((Q, Sigma0), ranks):
        factor = scales[:, None] * rng.standard_normal((free.size, rank))
        mat[np.ix_(free, free)] = factor @ factor.T
    speech = draw(arrays(bool, n_frames))
    activation = TrackActivation(draw(arrays(bool, (n_frames, n_f))), draw(arrays(bool, (n_frames, n_a))))
    return dict(obs=y, params=replace(base, Q=Q, Sigma0=Sigma0), mask=speech, activation=activation,
                obs_model=obs_model)


@settings(deadline=None, max_examples=150)
@given(problem=regular_prior_problems())
def test_smoother_under_any_accepted_prior_is_finite_and_silent(problem):
    # TrackerParams accepts only priors whose gain systems are positive definite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eks_smooth(**problem)
    assert np.isfinite(res.means).all() and np.isfinite(res.covariances).all()
    assert np.array_equal(res.covariances, res.covariances.swapaxes(1, 2))
    assert np.all(res.means[:, problem["params"].known] == problem["params"].mu0[problem["params"].known])


def sequential_smooth(obs, params, mask, activation, obs_model):
    """``frozen_rts`` over ``_filtered``'s output, and the state bounds."""
    y, speech, _, flags, obs_model = _resolve_setup(obs, params, mask, activation, obs_model)
    bounds = obs_model.state_bounds()
    return frozen_rts(*_filtered(y, params, speech, flags, obs_model), flags, params, bounds), bounds


def assert_near_sequential(result, sequential):
    # the scan sums in another order than the loop
    for got, want in zip((result.means, result.covariances), sequential):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def smoother_blocks(monkeypatch, params, frames):
    """Blocks of ``frames`` frames for the smoother of ``params``, or the default blocks for None."""
    if frames is not None:
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", TestStackedGains.block_budget(params, frames))


@pytest.mark.parametrize("frames", [None, 1, 2, 7])
@settings(deadline=None, max_examples=40)
@given(problem=st.one_of(tracking_problems(), regular_prior_problems()))
@example(problem=long_schedule_problem(known=False))
@example(problem=long_schedule_problem(known=True))
def test_smoother_keeps_the_sequential_rule(frames, problem):
    with pytest.MonkeyPatch.context() as monkeypatch:
        smoother_blocks(monkeypatch, problem["params"], frames)
        sequential, _ = sequential_smooth(**problem)
        assert_near_sequential(eks_smooth(**problem), sequential)


@pytest.fixture(scope="module")
def clamped_demo():
    """The smoother's inputs when the default 3-formant config tracks the
    2-formant nasal demo: the clamp binds on many frames."""
    inputs = []

    def capture(*args):
        inputs.append(args)
        return eks_smooth(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(karma.pipeline, "eks_smooth", capture)
        track_waveform(synthesize(nasal_utterance_spec())[0], RunConfig())
    obs, params, mask, activation = inputs[0]
    return dict(obs=obs, params=params, mask=mask, activation=activation, obs_model=None)


@pytest.mark.parametrize("frames", [None, 1, 2, 7])
def test_smoother_keeps_the_sequential_rule_where_the_clamp_binds(monkeypatch, clamped_demo, frames):
    smoother_blocks(monkeypatch, clamped_demo["params"], frames)
    sequential, (lo, hi) = sequential_smooth(**clamped_demo)
    res = eks_smooth(**clamped_demo)
    assert_near_sequential(res, sequential)
    assert np.all((lo <= res.means) & (res.means <= hi))
    assert np.any((res.means == lo) | (res.means == hi))


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


def params_with(**fields):
    """A valid one-formant parameter set (N = 2) with ``fields`` replaced."""
    values = dict(Q=np.eye(2), R=np.eye(2), mu0=[500.0, 80.0], Sigma0=np.eye(2),
                  n_formants=1, n_antiformants=0, n_cepstra=2, sample_rate_hz=8000.0)
    return TrackerParams(**{**values, **fields})


def test_known_entries_have_zero_q_and_sigma0_diagonals():
    # this rank-one Q has an eigenvalue a rounding error below zero: still positive semidefinite
    v = np.random.default_rng(41).standard_normal((2, 1)) * 300.0
    assert np.linalg.eigvalsh(v @ v.T)[0] < 0.0
    assert params_with(Q=v @ v.T).known.tolist() == [False, False]
    assert params_with(Q=np.diag([0.0, 1.0]), Sigma0=np.diag([0.0, 1.0])).known.tolist() == [True, False]
    assert params_with(Q=np.diag([0.0, 1.0])).known.tolist() == [False, False]
    assert params_with(Sigma0=np.diag([1.0, 0.0])).known.tolist() == [False, False]


NOT_2D = r"^tracks must be \(frames, states\)"
NOT_FLAG_TABLES = r"^activation flags must be \(T, I\) and \(T, J\) arrays"
TRACKER_INPUT_CHECKS = {
    "q-shape": (lambda: params_with(Q=np.eye(3)), "^Q must be 2x2"),
    "sigma0-shape": (lambda: params_with(Sigma0=np.eye(3)), "^Sigma0 must be 2x2"),
    "mu0-length": (lambda: params_with(mu0=[500.0, 80.0, 1.0]), "^mu0 length inconsistent"),
    "r-shape": (lambda: params_with(R=np.eye(3)), "^R must be N x N"),
    "r-zero": (lambda: params_with(R=np.zeros((2, 2))), "^R must be positive definite"),
    "r-negative-diagonal": (lambda: params_with(R=np.diag([1.0, -0.5])), "^R must be positive definite"),
    "r-nan": (lambda: params_with(R=np.diag([1.0, np.nan])), "^R must be finite"),
    "q-nan": (lambda: params_with(Q=np.diag([1.0, np.nan])), "^Q must be finite"),
    "q-negative-definite": (lambda: params_with(Q=-0.5 * np.eye(2)), "^Q must be positive semidefinite"),
    "q-minus-identity": (lambda: params_with(Q=-np.eye(2)), "^Q must be positive semidefinite"),
    "sigma0-indefinite": (
        lambda: params_with(Sigma0=np.array([[1.0, 2.0], [2.0, 1.0]])),
        "^Sigma0 must be positive semidefinite",
    ),
    "known-entry-coupled": (
        lambda: params_with(Q=np.array([[0.0, 1e-7], [1e-7, 1.0]]), Sigma0=np.diag([0.0, 1.0])),
        r"^a known entry \(zero Q and Sigma0 diagonal\) needs zero rows in both",
    ),
    "formants-negative": (lambda: params_with(n_formants=-1, n_antiformants=2), "^track counts must be non-negative"),
    "antiformants-negative": (lambda: params_with(n_antiformants=-1), "^track counts must be non-negative"),
    "formants-float": (lambda: params_with(n_formants=1.0), "^track counts must be non-negative integers"),
    "cepstra-float": (lambda: params_with(n_cepstra=2.0), "^n_cepstra must be positive and an integer"),
    "no-tracks": (lambda: params_with(n_formants=0), "^need at least one formant or antiformant to track"),
    "no-cepstra": (lambda: params_with(n_cepstra=0, R=np.zeros((0, 0))), "^n_cepstra must be positive"),
    "process-variance-overflows": (
        lambda: default_params(1, 0, 8000.0, 2, freq_process_std=1e200), "^Q must be finite"
    ),
    "mu0-nan": (lambda: params_with(mu0=[np.nan, 80.0]), "^mu0 must be finite"),
    "sample-rate-zero": (lambda: params_with(sample_rate_hz=0.0), "^sample_rate_hz must be positive and finite"),
    "hop-negative": (lambda: params_with(hop_s=-0.01), "^hop_s must be positive and finite"),
    "activation-lengths-differ": (
        lambda: TrackActivation(np.ones((3, 1), bool), np.ones((4, 1), bool)),
        "^formant/antiformant flag lengths differ",
    ),
    "activation-one-dimensional": (
        lambda: TrackActivation(np.ones(3, bool), np.ones((3, 0), bool)),
        NOT_FLAG_TABLES,
    ),
    "activation-three-dimensional": (
        lambda: TrackActivation(np.ones((3, 1, 1), bool), np.ones((3, 0), bool)),
        NOT_FLAG_TABLES,
    ),
    "zero-frames": (lambda: ekf_filter(np.zeros((0, 2)), params_with()), "^need at least one observation frame"),
    "activation-wrong-length": (
        lambda: ekf_filter(np.zeros((5, 2)), params_with(), activation=TrackActivation.all_active(4, 1, 0)),
        "^activation length does not match",
    ),
    "transition-one-dimensional": (lambda: estimate_transition(np.ones(40)), NOT_2D),
    "transition-three-dimensional": (lambda: estimate_transition(np.ones((40, 2, 1))), NOT_2D),
}


@pytest.mark.parametrize("case", list(TRACKER_INPUT_CHECKS))
def test_input_checks(case):
    call, message = TRACKER_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
