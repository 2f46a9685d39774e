from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import karma.arma
from karma.arma import (
    CERT_MARGIN,
    MAX_ROOT_RADIUS,
    ArmaModel,
    _MA_CLIP,
    _lagged,
    _monic,
    _certify_rows,
    _reflect_rows,
    _roots_rows,
    enforce_minimum_phase,
    estimate_ar,
    estimate_arma,
    fit_ar_frames,
    fit_arma_frames,
)
import karma.pipeline as pipeline
from karma.cepstrum import arma_cepstra, arma_to_cepstrum
from karma.frontend import detect_activity, preemphasize, resample, window_frames
from karma.pipeline import RunConfig, build_observations
from karma.synthesis import nasal_utterance_spec, random_trajectory, synthesize

from conftest import random_minimum_phase_model


def polynomial_with_roots(rng, radii):
    """Real monic polynomial (powers of z^-1) with a conjugate root pair at
    each radius, at well-separated angles so np.roots stays accurate."""
    angles = rng.permutation(np.linspace(0.15, np.pi - 0.15, 8))[: len(radii)]
    roots = [r * np.exp(s * 1j * a) for r, a in zip(radii, angles) for s in (1, -1)]
    return np.real(np.poly(roots))


def root_radius(poly):
    return np.abs(np.roots(poly)).max(initial=0.0)


def stabilize_ma(b, clip_radius):
    """One row of the fit's MA stabilisation."""
    return _reflect_rows(np.concatenate(([1.0], b))[None, :], clip_radius)[0, 1:]


def certify(poly, radius):
    """The one-row step-down certificate, checked against the scalar recursion."""
    certified = bool(_certify_rows(np.asarray(poly, dtype=float)[None, :], radius)[0])
    assert certified == reference_certify_inside(poly, radius)
    return certified


# Frozen per-frame ARMA fit that the batched route replaced.  Every row of
# ``fit_arma_frames`` and every ARMA observation must reproduce it bit for
# bit: the nasal tracks react chaotically to rounding, so "close" is not
# enough.  It certifies with the scalar step-down recursion, factors with
# np.roots/np.poly and builds every lag matrix anew.


def reference_certify_inside(poly, radius):
    c = [float(v) * radius**-j for j, v in enumerate(poly)]
    bound = 1.0 - CERT_MARGIN
    for m in range(len(c) - 1, 0, -1):
        k = c[m]
        if not abs(k) < bound:
            return False
        scale = 1.0 - k * k
        c = [1.0] + [(c[i] - k * c[m - i]) / scale for i in range(1, m)]
    return True


def reference_reflect_roots(poly, clip_radius):
    if reference_certify_inside(poly, clip_radius):
        return poly.astype(float)
    roots = np.roots(poly)
    mags = np.abs(roots)
    outside = mags > 1.0
    roots[outside] = 1.0 / np.conj(roots[outside])
    mags = np.abs(roots)
    hot = mags > clip_radius
    roots[hot] *= clip_radius / mags[hot]
    return np.real(np.poly(roots))


def reference_lagged(s, k):
    out = np.zeros((s.size, k))
    for i in range(1, k + 1):
        out[i:, i - 1] = s[: s.size - i]
    return out


def reference_estimate_arma(frame, p, q, max_iter=50, rel_tol=1e-8):
    """(model, objective history) of the per-frame fit."""
    x = np.asarray(frame, dtype=float).ravel()
    if q == 0:
        model = estimate_ar(x, p)
        return model, []
    if not np.any(x):
        return ArmaModel(np.zeros(p), np.zeros(q), 0.0, converged=False), []

    def stabilize(b):
        return reference_reflect_roots(np.concatenate(([1.0], b)), 0.99)[1:]

    def prediction_error(a, b):
        return sps.lfilter(np.concatenate(([1.0], -a)), np.concatenate(([1.0], b)), x)

    n_long = min(max(20, 2 * (p + q)), max(p + q + 2, x.size // 3))
    long_ar = estimate_ar(x, n_long)
    u = sps.lfilter(long_ar.ar_polynomial, [1.0], x)
    k0 = max(p, q)
    design = np.hstack([reference_lagged(x, p), reference_lagged(u, q)])[k0:]
    theta, *_ = np.linalg.lstsq(design, x[k0:], rcond=None)
    a = theta[:p].copy()
    b = stabilize(theta[p:].copy())
    e = prediction_error(a, b)
    sse = float(e @ e)
    history = [sse]
    converged = False
    for _ in range(max_iter):
        b_poly = np.concatenate(([1.0], b))
        x_b = sps.lfilter([1.0], b_poly, x)
        e_b = sps.lfilter([1.0], b_poly, e)
        jac = -np.hstack([reference_lagged(x_b, p), reference_lagged(e_b, q)])
        hess = jac.T @ jac
        hess[np.diag_indices_from(hess)] += 1e-10 * max(np.trace(hess), 1.0)
        try:
            delta = np.linalg.solve(hess, jac.T @ e)
        except np.linalg.LinAlgError:
            break
        accepted = False
        for scale in 2.0 ** -np.arange(11):
            a_new = a - scale * delta[:p]
            b_new = stabilize(b - scale * delta[p:])
            e_new = prediction_error(a_new, b_new)
            sse_new = float(e_new @ e_new)
            if np.isfinite(sse_new) and sse_new < sse:
                accepted = True
                break
        if not accepted:
            converged = True
            break
        rel_gain = (sse - sse_new) / max(sse, 1e-300)
        a, b, e, sse = a_new, b_new, e_new, sse_new
        history.append(sse)
        if rel_gain < rel_tol:
            converged = True
            break
    ar_poly = reference_reflect_roots(np.concatenate(([1.0], -a)), MAX_ROOT_RADIUS)
    ma_poly = reference_reflect_roots(np.concatenate(([1.0], b)), MAX_ROOT_RADIUS)
    a, b = -ar_poly[1:], ma_poly[1:]
    resid = prediction_error(a, b)
    return ArmaModel(a, b, float(np.mean(resid**2)), converged), history


@cache
def nasal_frames(seed=715):
    """Pre-emphasized 100 ms frames of a nasal demo utterance, as the demo
    configuration analyses them (10 kHz, 50 % overlap, gamma 0.9)."""
    wave, _ = synthesize(nasal_utterance_spec(seed=seed))
    frames = window_frames(wave, 100.0, 0.5, "hamming")
    frames = preemphasize(frames.frames, 0.9)
    frames.setflags(write=False)
    return frames


def assert_rows_equal_the_reference(frames, p, q, fit):
    """Every row of a ``fit_arma_frames`` result is the frozen per-frame fit."""
    ar, ma, noise_variance, converged, objectives = fit
    for t, frame in enumerate(frames):
        model, history = reference_estimate_arma(frame, p, q)
        assert np.array_equal(ar[t], model.ar)
        assert np.array_equal(ma[t], model.ma)
        assert noise_variance[t] == model.noise_variance
        assert converged[t] == model.converged
        assert objectives[t] == history


def random_arma_frames(rng, n_rows, length):
    """Noise through random ARMA filters, some with roots near the circle."""
    frames = np.empty((n_rows, length))
    for t in range(n_rows):
        model = random_minimum_phase_model(
            rng, int(rng.integers(1, 9)), int(rng.integers(0, 5)), max_radius=float(rng.choice([0.9, 0.999]))
        )
        noise = rng.standard_normal(length) * 10.0 ** rng.uniform(-3, 2)
        frames[t] = sps.lfilter(model.ma_polynomial, model.ar_polynomial, noise)
    return frames


class TestEstimateAr:
    def test_white_noise_near_zero(self):
        x = np.random.default_rng(0).standard_normal(10000)
        m = estimate_ar(x, 2)
        assert np.all(np.abs(m.ar) < 0.05)

    def test_ar2_recovery(self):
        u = np.random.default_rng(1).standard_normal(50000)
        x = sps.lfilter([1.0], [1.0, -1.0, 0.5], u)
        m = estimate_ar(x, 2)
        assert np.abs(m.ar - [1.0, -0.5]).max() < 0.02

    def test_zero_frame_flagged(self):
        m = estimate_ar(np.zeros(100), 4)
        assert np.all(m.ar == 0.0)
        assert m.noise_variance == 0.0
        assert not m.converged

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            estimate_ar(np.ones(4), 4)

    def test_always_minimum_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(20, 200))
            p = int(rng.integers(1, min(12, n - 1)))
            m = estimate_ar(rng.standard_normal(n), p)
            assert m.is_minimum_phase()

    def test_noise_variance_nonincreasing_in_order(self):
        rng = np.random.default_rng(3)
        x = sps.lfilter([1.0], [1.0, -0.9, 0.3], rng.standard_normal(4000))
        variances = [estimate_ar(x, p).noise_variance for p in range(1, 10)]
        assert np.all(np.diff(variances) <= 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 16), n_rows=st.integers(1, 8))
    def test_batch_rows_match_single_frame_fits(self, seed, p, n_rows):
        rng = np.random.default_rng(seed)
        frames = np.empty((n_rows, 160))
        for t in range(n_rows):
            model = random_minimum_phase_model(rng, int(rng.integers(1, 9)), 0, max_radius=0.999)
            frames[t] = sps.lfilter([1.0], model.ar_polynomial, rng.standard_normal(160))
        frames[rng.random(n_rows) < 0.2] = 0.0
        a, err = fit_ar_frames(frames, p)
        for t, frame in enumerate(frames):
            m = estimate_ar(frame, p)
            assert np.allclose(a[t], m.ar, rtol=1e-12, atol=1e-13)
            assert err[t] == pytest.approx(m.noise_variance, rel=1e-12, abs=1e-300)
            if not np.any(frame):
                assert np.all(a[t] == 0.0) and err[t] == 0.0


class TestStepDownCertificate:
    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radius=st.sampled_from([0.99, 1.0]),
        n_pairs=st.integers(1, 6),
        offsets=st.lists(st.sampled_from([-1e-7, 1e-7, -0.05, -0.3]), min_size=6, max_size=6),
    )
    def test_never_certifies_a_root_on_or_outside(self, seed, radius, n_pairs, offsets):
        rng = np.random.default_rng(seed)
        poly = polynomial_with_roots(rng, [radius + d for d in offsets[:n_pairs]])
        if certify(poly, radius):
            assert root_radius(poly) < radius

    def test_certifies_roots_well_inside(self, rng):
        for _ in range(200):
            radius = float(rng.choice([0.99, 1.0]))
            radii = rng.uniform(0.1, 0.98 * radius, int(rng.integers(1, 7)))
            assert certify(polynomial_with_roots(rng, radii), radius)

    def test_inconclusive_near_the_circle(self, rng):
        for radius in (0.99, 1.0):
            near = polynomial_with_roots(rng, [0.5, radius - 1e-9])
            assert not certify(near, radius)
            assert not certify(polynomial_with_roots(rng, [0.5, radius + 1e-7]), radius)

    def test_is_minimum_phase_agrees_with_roots(self, rng):
        for _ in range(300):
            p, q = int(rng.integers(0, 13)), int(rng.integers(0, 9))
            m = random_minimum_phase_model(rng, p, q, max_radius=0.999)
            if rng.random() < 0.3 and p:
                m = ArmaModel(-np.real(np.poly(m.poles() * 1.05))[1:], m.ma, 1.0)
            for tol in (0.0, 0.01):
                radii = [np.abs(m.poles()).max(initial=0.0), np.abs(m.zeros()).max(initial=0.0)]
                if abs(max(radii) - (1.0 - tol)) > 1e-9:
                    assert m.is_minimum_phase(tol) == (max(radii) < 1.0 - tol)

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clip=st.sampled_from([0.9, 0.99]),
        offsets=st.lists(st.sampled_from([-1e-7, 1e-7, -0.1, 0.02, 0.5]), min_size=1, max_size=4),
    )
    def test_stabilized_ma_within_clip_radius(self, seed, clip, offsets):
        rng = np.random.default_rng(seed)
        b = polynomial_with_roots(rng, [clip + d for d in offsets])[1:]
        out = stabilize_ma(b, clip)
        assert root_radius(np.concatenate(([1.0], out))) <= clip * (1.0 + 1e-9)

    def test_stabilize_ma_returns_certified_input_unchanged(self, rng):
        b = polynomial_with_roots(rng, [0.5, 0.8])[1:]
        assert np.array_equal(stabilize_ma(b, 0.99), b)

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(0, 8),
        n_rows=st.integers(1, 12),
        radius=st.sampled_from([0.99, MAX_ROOT_RADIUS, 1.0]),
    )
    def test_rows_equal_the_scalar_recursion(self, seed, degree, n_rows, radius):
        rng = np.random.default_rng(seed)
        polys = np.empty((n_rows, degree + 1))
        for t in range(n_rows):
            if rng.random() < 0.3:  # coefficients of any size, NaN now and then
                polys[t] = np.concatenate(([1.0], rng.standard_normal(degree) * 10.0 ** rng.uniform(-3, 2)))
                if degree and rng.random() < 0.2:
                    polys[t, rng.integers(1, degree + 1)] = np.nan
                continue
            if rng.random() < 0.5:  # roots on the tested circle or just off it
                radii = radius * (1.0 + rng.choice([-1e-7, 0.0, 1e-7], degree // 2 + 1))
            else:
                radii = rng.uniform(0.1, 1.2, degree // 2 + 1)
            poly = polynomial_with_roots(rng, radii[:-1])  # conjugate pairs
            polys[t] = np.convolve(poly, [1.0, -radii[-1] * rng.choice([-1, 1])]) if degree % 2 else poly
        certified = _certify_rows(polys, radius)
        assert certified.dtype == bool and certified.shape == (n_rows,)
        for t in range(n_rows):
            assert certified[t] == reference_certify_inside(polys[t], radius)
            assert _certify_rows(polys[t : t + 1], radius)[0] == certified[t]


class TestEstimateArma:
    def test_q_zero_matches_ar(self):
        x = np.random.default_rng(4).standard_normal(2000)
        m1 = estimate_arma(x, 3, 0)
        m2 = estimate_ar(x, 3)
        assert np.abs(m1.ar - m2.ar).max() < 1e-6

    def test_arma22_spectrum_match(self):
        a_true = np.array([0.8, -0.4])
        b_true = np.array([0.5, 0.2])
        u = np.random.default_rng(5).standard_normal(100000)
        x = sps.lfilter(np.r_[1.0, b_true], np.r_[1.0, -a_true], u)
        m = estimate_arma(x, 2, 2)
        truth = ArmaModel(a_true, b_true, 1.0)
        dev = np.abs(m.log_magnitude(512) - truth.log_magnitude(512))
        assert dev.max() < 0.1

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(6)
        x = sps.lfilter([1.0, 0.4], [1.0, -0.7, 0.2], rng.standard_normal(3000))
        _, info = estimate_arma(x, 2, 1, full_output=True)
        obj = np.asarray(info["objective"])
        assert obj.size >= 1
        assert np.all(np.diff(obj) <= 0.0)

    def test_zero_frame(self):
        m = estimate_arma(np.zeros(200), 2, 2)
        assert np.all(m.ar == 0.0) and np.all(m.ma == 0.0)
        assert not m.converged

    def test_result_minimum_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = sps.lfilter([1.0, 0.3, 0.1], [1.0, -1.2, 0.5], rng.standard_normal(1500))
            m = estimate_arma(x, 4, 2)
            assert m.is_minimum_phase()

    def test_nasal_frame_has_spectral_valley(self):
        """An ARMA(16,4) fit of a synthesized nasal frame shows the zero."""
        from karma.cepstrum import ResonanceState
        from karma.synthesis import FramePlan, TrajectorySpec, synthesize
        from karma.frontend import window_frames, preemphasize

        fs = 10000.0
        state = ResonanceState([257.0, 1891.0], [32.0, 100.0], [1223.0], [52.0], fs)
        plans = [FramePlan(state=state, source="rosenberg", f0_hz=110.0) for _ in range(9)]
        wave, _ = synthesize(TrajectorySpec(plans, 100.0, 0.5, fs, seed=2))
        frames = window_frames(wave, 100.0, 0.5, "hamming")
        emph = preemphasize(frames.frames, 0.7)
        m = estimate_arma(emph[4], 16, 4)
        w, h = sps.freqz(m.ma_polynomial, m.ar_polynomial, worN=4096, fs=fs)
        mag = 20 * np.log10(np.abs(h) + 1e-12)
        valleys, _ = sps.find_peaks(-mag)
        valley_freqs = w[valleys]
        assert np.abs(valley_freqs - 1223.0).min() < 75.0


    def test_shortest_frame_fits(self):
        # the long-AR order is capped below the frame length
        x = np.random.default_rng(8).standard_normal(8)
        m = estimate_arma(x, 4, 2)
        assert m.p == 4 and m.q == 2
        assert np.all(np.isfinite(m.ar)) and np.all(np.isfinite(m.ma)) and np.isfinite(m.noise_variance)
        assert m.is_minimum_phase()

    def test_frame_one_sample_shorter_raises(self):
        with pytest.raises(ValueError, match="frame length must exceed p \\+ q \\+ 1"):
            estimate_arma(np.random.default_rng(9).standard_normal(7), 4, 2)

    def test_full_output_is_the_batched_row(self):
        x = np.random.default_rng(10).standard_normal(300)
        model, info = estimate_arma(x, 3, 2, full_output=True)
        ar, ma, noise_variance, converged, objectives = fit_arma_frames(x[None, :], 3, 2)
        assert np.array_equal(model.ar, ar[0]) and np.array_equal(model.ma, ma[0])
        assert model.noise_variance == noise_variance[0] and model.converged == converged[0]
        assert info == {"objective": objectives[0], "converged": bool(converged[0])}


class TestFitArmaFrames:
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        q=st.integers(1, 4),
        n_rows=st.integers(1, 10),
        nasal=st.booleans(),
        extra=st.integers(1, 200),
    )
    @example(seed=0, p=8, q=4, n_rows=3, nasal=True, extra=1)
    @example(seed=1, p=1, q=1, n_rows=2, nasal=False, extra=1)
    @example(seed=2, p=6, q=4, n_rows=10, nasal=True, extra=1)
    @example(seed=3, p=3, q=2, n_rows=10, nasal=False, extra=150)
    def test_rows_equal_the_per_frame_fit(self, seed, p, q, n_rows, nasal, extra):
        """Rows of one batch stop in different rounds; each stays its own fit."""
        rng = np.random.default_rng(seed)
        if nasal:
            frames = nasal_frames()[rng.integers(0, len(nasal_frames()), n_rows)]
        else:
            frames = random_arma_frames(rng, n_rows, p + q + 2 + extra)
        frames[rng.random(n_rows) < 0.25] = 0.0
        assert_rows_equal_the_reference(frames, p, q, fit_arma_frames(frames, p, q))

    @pytest.mark.parametrize("seed", [715, 719])
    def test_whole_utterance_equals_the_per_frame_fit(self, seed):
        frames = nasal_frames(seed).copy()
        frames[[0, 40]] = 0.0
        fit = fit_arma_frames(frames, 6, 4)
        assert_rows_equal_the_reference(frames, 6, 4, fit)
        converged, objectives = fit[3], fit[4]
        lengths = [len(h) for h in objectives]
        assert lengths[0] == lengths[40] == 0
        assert len(set(lengths)) > 10  # rows stop in many different rounds
        if seed == 719:  # rows that hit the 50-iteration cap
            assert sum(n == 51 and not c for n, c in zip(lengths, converged)) == 2

    @pytest.mark.parametrize("fail_row", [False, True])
    def test_singular_stack_falls_back_to_rows(self, monkeypatch, fail_row):
        """A stacked solve that raises is redone row by row; a row whose own
        solve raises stops there, unconverged, as the per-frame fit does."""
        frames = nasal_frames()[20:26].copy()
        solve = np.linalg.solve
        calls = {"stacked": 0, "rows": 0}

        def flaky_solve(a, b):
            if a.ndim == 3:
                calls["stacked"] += 1
                calls["rows"] = 0
                if calls["stacked"] >= 3:
                    raise np.linalg.LinAlgError("Singular matrix")
            elif calls["stacked"] == 3:
                calls["rows"] += 1
                if fail_row and calls["rows"] == 1:
                    raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        fit = fit_arma_frames(frames, 6, 4)
        monkeypatch.undo()
        assert calls["stacked"] >= 3
        if not fail_row:
            assert_rows_equal_the_reference(frames, 6, 4, fit)
            return
        # the first row's third solve failed: it keeps its first two steps
        model, history = reference_estimate_arma(frames[0], 6, 4, max_iter=2)
        assert len(reference_estimate_arma(frames[0], 6, 4)[1]) > 3
        assert np.array_equal(fit[0][0], model.ar) and np.array_equal(fit[1][0], model.ma)
        assert fit[2][0] == model.noise_variance and not fit[3][0] and fit[4][0] == history
        assert_rows_equal_the_reference(frames[1:], 6, 4, [out[1:] for out in fit])

    def test_ar_only_rows_are_ar_fits(self):
        frames = random_arma_frames(np.random.default_rng(11), 3, 120)
        frames[1] = 0.0
        ar, ma, noise_variance, converged, objectives = fit_arma_frames(frames, 5, 0)
        a, err = fit_ar_frames(frames, 5)
        assert np.array_equal(ar, a) and np.array_equal(noise_variance, err)
        assert ma.shape == (3, 0) and converged.tolist() == [True, False, True]
        assert objectives == [[], [], []]

    def test_no_rows(self):
        ar, ma, noise_variance, converged, objectives = fit_arma_frames(np.zeros((0, 50)), 4, 2)
        assert ar.shape == (0, 4) and ma.shape == (0, 2) and noise_variance.shape == (0,)
        assert converged.shape == (0,) and objectives == []


class TestReflectRoots:
    """Each row of the batched factoring equals np.real(np.poly(...)) of the
    reflected and clipped np.roots, which ``reference_reflect_roots`` computes."""

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_real=st.integers(0, 4),
        n_pairs=st.integers(0, 3),
        n_rows=st.integers(1, 6),
        scale=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        clip=st.sampled_from([0.99, MAX_ROOT_RADIUS]),
        zero_last=st.booleans(),
    )
    def test_equals_factoring_with_numpy(self, seed, n_real, n_pairs, n_rows, scale, clip, zero_last):
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(n_rows):
            roots = list(rng.uniform(-scale, scale, n_real))
            for _ in range(n_pairs):
                z = rng.uniform(0.1, scale) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
                roots += [z, np.conj(z)]
            if zero_last or not roots:
                roots.append(0.0)
            polys.append(np.real(np.poly(roots)))
        polys = np.array(polys)
        out = _reflect_rows(polys, clip)
        for t, poly in enumerate(polys):
            assert np.array_equal(out[t], reference_reflect_roots(poly, clip))

    @pytest.mark.parametrize(
        "roots",
        [
            [2.0, -1.5, 0.3],  # real only, two outside
            [0.5 + 1.2j, 0.5 - 1.2j, 0.2],  # a complex pair outside
            [0.995 * np.exp(0.7j), 0.995 * np.exp(-0.7j)],  # a pair between the clip radius and 1
            [1.2, -0.4, 0.0],  # zero trailing coefficient
        ],
    )
    def test_factored_cases(self, roots):
        poly = np.real(np.poly(roots))
        assert not certify(poly, 0.99)
        out = stabilize_ma(poly[1:], 0.99)
        assert np.array_equal(out, reference_reflect_roots(poly, 0.99)[1:])
        assert root_radius(np.concatenate(([1.0], out))) < 0.99 + 1e-9

    def test_mixed_rows_in_one_call(self):
        """Certified, real-rooted, complex-rooted and zero-trailing rows side by side."""
        polys = np.array(
            [
                np.real(np.poly([0.5, -0.3, 0.2 + 0.1j, 0.2 - 0.1j])),
                np.real(np.poly([2.0, -1.5, 0.3, 0.1])),
                np.real(np.poly([0.5 + 1.2j, 0.5 - 1.2j, 0.2, 0.995])),
                np.real(np.poly([1.2, -0.4, 0.3, 0.0])),
            ]
        )
        out = _reflect_rows(polys, _MA_CLIP)
        assert _certify_rows(polys, _MA_CLIP).tolist() == [True, False, False, False]
        assert np.array_equal(out[0], polys[0])
        for t, poly in enumerate(polys):
            assert np.array_equal(out[t], reference_reflect_roots(poly, _MA_CLIP))

    @pytest.mark.parametrize("degree", [0, 1, 4, 7])
    def test_roots_equal_np_roots(self, degree):
        """Stacked companion eigenvalues are np.roots row for row, zero trailing
        coefficients included."""
        rng = np.random.default_rng(degree)
        polys = _monic(rng.standard_normal((6, degree)) * 10.0 ** rng.uniform(-2, 1, (6, 1)))
        polys[::3, -1] = 0.0 if degree else 1.0
        roots = _roots_rows(polys)
        assert roots.shape == (6, degree)
        for t, poly in enumerate(polys):
            assert np.array_equal(roots[t], np.roots(poly))


class TestArmaObservations:
    CONFIG = RunConfig(lpc_order=6, ma_order=4, n_formants=2, n_antiformants=1)  # the nasal demo's orders

    @pytest.mark.parametrize("refuse", ["none", "some", "all"])
    def test_equal_to_the_per_frame_loop(self, monkeypatch, refuse):
        frames = nasal_frames()[::3].copy()
        frames[2] = 0.0
        speech = np.ones(len(frames), dtype=bool)
        speech[[0, 5]] = False
        fitted = np.flatnonzero(speech & np.any(frames, axis=1))
        n = self.CONFIG.n_cepstra
        expected = np.zeros((len(frames), n))
        for t in fitted:
            model, _ = reference_estimate_arma(frames[t], 6, 4)
            expected[t] = arma_to_cepstrum(model, n).coeffs
        assert np.array_equal(build_observations(frames, self.CONFIG, speech), expected)

        ar, ma, *_ = fit_arma_frames(frames[fitted], 6, 4)
        certify_rows, roots_rows, factored = karma.arma._certify_rows, karma.arma._roots_rows, []

        def refusing(polys, radius):
            proved = certify_rows(polys, radius)
            if refuse == "all":
                proved[:] = False
            elif refuse == "some":
                proved[::5] = False
            return proved

        def counted(polys):
            factored.append(len(polys))
            return roots_rows(polys)

        monkeypatch.setattr(karma.arma, "_certify_rows", refusing)
        monkeypatch.setattr(karma.arma, "_roots_rows", counted)
        assert np.array_equal(arma_cepstra(ar, ma, n), expected[fitted])
        n_refused = {"none": 0, "some": len(range(0, fitted.size, 5)), "all": fitted.size}[refuse]
        assert factored == ([n_refused] * 2 if n_refused else [])  # AR rows, then MA rows

    def test_pipeline_fits_take_no_roots(self, monkeypatch):
        """The certificate at radius 1 proves every fit of a nasal utterance and
        of a corpus utterance, so the observation step factors nothing."""
        roots_rows, armed, factored = karma.arma._roots_rows, [False], []

        def counted(polys):
            factored.append((armed[0], len(polys)))
            return roots_rows(polys)

        def armed_cepstra(*args):
            armed[0] = True
            try:
                return arma_cepstra(*args)
            finally:
                armed[0] = False

        monkeypatch.setattr(karma.arma, "_roots_rows", counted)
        monkeypatch.setattr(pipeline, "arma_cepstra", armed_cepstra)
        frames = nasal_frames(712)
        build_observations(frames, self.CONFIG, np.ones(len(frames), dtype=bool))
        assert factored and not any(in_check for in_check, _ in factored)  # only the fit's MA steps

        factored.clear()
        spec = random_trajectory(4, 10.0, seed=101, sample_rate_hz=16000.0, source="rosenberg")
        config = RunConfig()
        framed = window_frames(resample(synthesize(spec)[0], config.target_sample_rate_hz), 20.0, 0.5, "hamming")
        speech = detect_activity(framed, config.energy_threshold_db).flags
        build_observations(preemphasize(framed.frames, config.gamma), config, speech)
        assert factored == []


class TestLaggedMatrix:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 3), (5, 0), (6, 4), (200, 20)])
    def test_matches_column_loop(self, n, k):
        s = np.random.default_rng(n + k).standard_normal(n)
        expected = np.zeros((n, k))
        for i in range(1, k + 1):
            expected[i:, i - 1] = s[: max(n - i, 0)]
        assert np.array_equal(_lagged(s, k), expected)


class TestEnforceMinimumPhase:
    def test_already_minimum_phase_unchanged(self, rng):
        m = random_minimum_phase_model(rng, 6, 2)
        out = enforce_minimum_phase(m)
        assert np.abs(out.ar - m.ar).max() < 1e-12
        assert np.abs(out.ma - m.ma).max() < 1e-12

    def test_single_pole_reflection(self):
        # pole at z = 2: denominator 1 - 2 z^-1
        m = ArmaModel([2.0], [], 1.0)
        out = enforce_minimum_phase(m)
        assert out.poles()[0] == pytest.approx(0.5)

    def test_spectrum_preserved_up_to_gain(self, rng):
        # degree-6 polynomial with 2 roots pushed outside
        inside = random_minimum_phase_model(rng, 6, 0)
        roots = inside.poles()
        roots[0] = roots[0] / np.abs(roots[0]) ** 2 * 1.5
        roots[1] = np.conj(roots[0])
        poly = np.real(np.poly(roots))
        m = ArmaModel(-poly[1:], [], 1.0)
        out = enforce_minimum_phase(m)
        assert np.abs(out.poles()).max() < 1.0
        w = np.linspace(0, np.pi, 257)
        z = np.exp(1j * w)
        mag_in = np.abs(np.polyval(m.ar_polynomial[::-1], 1 / z))
        mag_out = np.abs(np.polyval(out.ar_polynomial[::-1], 1 / z))
        ratio = mag_in / mag_out
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9
