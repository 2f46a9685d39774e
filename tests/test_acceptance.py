"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Shared corpus and tracking runs are cached in session fixtures so the whole
suite stays inside its runtime budgets.
"""

import time

import numpy as np
import pytest

from karma.cepstrum import CepstralObservation, arma_to_cepstrum
from karma.evaluation import rmse
from karma.frontend import Waveform
from karma.particle import ekf_pf_benchmark
from karma.pipeline import RunConfig, track_waveform
from karma.synthesis import (
    TrajectorySpec,
    nasal_demo_config,
    random_trajectory,
    synthesize,
)
from karma.tracker import ekf_filter, eks_smooth

from conftest import (
    CRITERION_8_BUDGET_HZ,
    batch_map_oracle,
    cascade_model,
    criterion_8_holds,
    kalman_oracle,
    linear_system,
    nasal_scores,
    random_minimum_phase_model,
    root_sum_cepstrum,
    track_nasal,
)

CORPUS_SEEDS = range(100, 110)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_valid_state(rng, fs=10000.0):
    """A random state vector (f_1..f_I, b_1..b_I, f'_1..f'_J, b'_1..b'_J) and
    its track counts I and J."""
    i = int(rng.integers(1, 5))
    j = int(rng.integers(0, 3))
    x = np.concatenate([
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, i)),
        rng.uniform(20.0, 400.0, i),
        np.sort(rng.uniform(100.0, fs / 2 - 100.0, j)),
        rng.uniform(20.0, 400.0, j),
    ])
    return x, i, j


def corpus_overall(results):
    """Per-utterance overall RMSE, then the mean across utterances."""
    overalls = [rep.overall for rep in results]
    return float(np.mean(overalls))


def per_utterance(results) -> str:
    return f"per utterance {np.round([rep.overall for rep in results], 1).tolist()} Hz"


def track_corpus(source, observation_source="arma_cepstrum", mode="smooth"):
    """Track the ten-utterance synthetic corpus; four resonances are
    synthesized but only the first three formants are tracked and scored."""
    reports, runs = [], []
    config = RunConfig(observation_source=observation_source, mode=mode)
    for seed in CORPUS_SEEDS:
        spec = random_trajectory(4, 2.0, seed=seed, sample_rate_hz=16000.0, source=source)
        wave, ref = synthesize(spec)
        res = track_waveform(wave, config)
        reports.append(rmse(res, ref, mask=ref.speech, formant_count=3, offset=0))
        runs.append((res, ref))
    return reports, runs


@pytest.fixture(scope="session")
def corpus_white():
    return track_corpus("white_noise")


@pytest.fixture(scope="session")
def corpus_voiced():
    return track_corpus("rosenberg")


@pytest.fixture(scope="session")
def corpus_realcep():
    return track_corpus("white_noise", observation_source="real_cepstrum")


@pytest.fixture(scope="session")
def nasal_run():
    return track_nasal(715)  # the demo's default seed


def test_criterion_01_cepstrum_recursion_matches_root_oracle():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p = int(rng.integers(1, 21))
        q = int(rng.integers(0, 9))
        model = random_minimum_phase_model(rng, p, q)
        got = arma_to_cepstrum(model, 30)
        worst = max(worst, float(np.abs(got - root_sum_cepstrum(model, 30)).max()))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"500 models, max |recursion - root oracle| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_observation_model_consistency():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        x, i, j = random_valid_state(rng)
        direct = CepstralObservation(i, j, 30, 10000.0).value(x)
        via_cascade = arma_to_cepstrum(cascade_model(x, i, j, 10000.0), 30)
        worst = max(worst, float(np.abs(direct - via_cascade).max()))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-9 and elapsed < 5.0,
           f"500 states, max |state map - cascade cepstrum| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x, i, j = random_valid_state(rng)
        model = CepstralObservation(i, j, 15, 10000.0)
        jac = model.linearize(x)[1]
        fd = np.zeros_like(jac)
        for k in range(x.size):
            up, dn = x.copy(), x.copy()
            up[k] += 1e-4
            dn[k] -= 1e-4
            fd[:, k] = (model.value(up) - model.value(dn)) / 2e-4
        worst = max(worst, float(np.abs(jac - fd).max() / np.abs(jac).max()))
    report(3, worst < 1e-6, f"100 states, max relative Jacobian error = {worst:.2e}")


def test_criterion_04_linear_surrogate_exactness():
    params, obs_model = linear_system()
    y = np.random.default_rng(3).standard_normal((30, 2)) * 2.0
    filt = ekf_filter(y, params, obs_model=obs_model)
    smth = eks_smooth(y, params, obs_model=obs_model)
    mf, Pf, ms, Ps = kalman_oracle(y, params, obs_model.H)
    errs = [
        np.abs(filt.means - mf).max(),
        np.abs(filt.covariances - Pf).max(),
        np.abs(smth.means - ms).max(),
        np.abs(smth.covariances - Ps).max(),
        np.abs(smth.means - batch_map_oracle(y, params, obs_model.H)).max(),
    ]
    worst = float(max(errs))
    report(4, worst < 1e-8,
           f"filter/smoother/MAP max deviation from closed form = {worst:.2e}")


def test_criterion_05_ekf_within_particle_filter_interval():
    start = time.perf_counter()
    out = ekf_pf_benchmark(trials=25, particle_counts=[100, 1000], seed=0)
    elapsed = time.perf_counter() - start
    ekf_mean = out["ekf"]["mean"]
    pf = out["pf"][1000]
    inside = pf["ci_low"] <= ekf_mean <= pf["ci_high"]
    paired = float(np.mean(out["pf_per_trial"][100] - out["pf_per_trial"][1000]))
    report(5, inside and paired >= 0.0 and elapsed < 300.0,
           f"EKF RMSE {ekf_mean:.2f} Hz vs PF@1000 CI [{pf['ci_low']:.2f}, {pf['ci_high']:.2f}] Hz, "
           f"PF@100 - PF@1000 paired diff {paired:+.2f} Hz, {elapsed:.1f} s")


def test_criterion_06_synthetic_corpus_rmse(corpus_white):
    start = time.perf_counter()
    reports, _ = corpus_white
    overall = corpus_overall(reports)
    elapsed = time.perf_counter() - start
    report(6, overall <= 75.0 and elapsed < 120.0,
           f"white-noise corpus overall RMSE = {overall:.1f} Hz (budget 75 Hz), "
           f"{per_utterance(reports)}")


def test_criterion_07_voiced_corpus_rmse(corpus_white, corpus_voiced):
    white = corpus_overall(corpus_white[0])
    voiced = corpus_overall(corpus_voiced[0])
    ok = voiced <= 90.0 and voiced <= 1.5 * white
    report(7, ok, f"voiced corpus overall RMSE = {voiced:.1f} Hz "
                  f"(budget 90 Hz and 1.5 x {white:.1f} Hz), {per_utterance(corpus_voiced[0])}")


def test_criterion_08_nasal_antiformant_tracking(nasal_run):
    formant_rmse, af_rmse = nasal_scores(*nasal_run)
    report(8, criterion_8_holds(formant_rmse, af_rmse), f"antiformant RMSE = {af_rmse:.1f} Hz, "
                  f"formant RMSEs = {np.round(formant_rmse, 1).tolist()} Hz "
                  f"(budget {CRITERION_8_BUDGET_HZ:.0f} Hz)")


def test_criterion_09_coasting_through_silence():
    spec = random_trajectory(4, 2.0, seed=42, sample_rate_hz=16000.0)
    wave, _ = synthesize(spec)
    samples = wave.samples.copy()
    fs = wave.sample_rate_hz
    samples[int(0.75 * fs) : int(1.25 * fs)] = 0.0
    gapped = Waveform(samples, fs)

    # uncertainty growth under the random walk
    res_f = track_waveform(gapped, RunConfig(mode="filter"))
    silent = np.flatnonzero(~res_f.speech)
    run = silent[(silent > 5) & (silent < res_f.n_frames - 5)]
    i = res_f.n_formants
    freq_trace = res_f.variances[:, :i].sum(axis=1)
    trace_ok = bool(np.all(np.diff(freq_trace[run]) >= -1e-9))

    # coasted means stay exactly where they are
    scale = float(np.abs(res_f.means).max())
    resid = max(float(np.abs(res_f.means[t] - res_f.means[t - 1]).max()) for t in run[1:])
    coast_ok = resid == 0.0

    # under the random walk the coasted means are affine in time, so second
    # differences vanish (filter and smoother alike)
    sec2 = []
    for res_i in (res_f, track_waveform(gapped, RunConfig(mode="smooth"))):
        sec2.append(float(np.abs(np.diff(res_i.means[run], n=2, axis=0)).max()))
    affine_ok = max(sec2) / scale < 1e-6

    report(9, trace_ok and coast_ok and affine_ok,
           f"trace nondecreasing over {run.size} silent frames = {trace_ok}, "
           f"largest coasted mean step = {resid:.2e}, "
           f"second difference = {max(sec2) / scale:.2e} (x value scale)")


def test_criterion_10_antiformant_observability(nasal_run):
    res8, ref8 = nasal_run
    af_var_col = 2 * res8.n_formants
    nasal = ref8.antiformant_active[:, 0]
    nasal_var = float(res8.variances[nasal, af_var_col].mean())
    demo_vowel_var = float(res8.variances[~nasal, af_var_col].mean())

    # the vowel formants jitter around (850, 1500) Hz, drawn frame by frame, F1 before F2
    rng = np.random.default_rng(11)
    vowel = TrajectorySpec(
        np.array([850.0, 1500.0]) + rng.normal(0.0, 3.0, (75, 2)),
        np.tile([80.0, 120.0], (75, 1)),
        np.full((75, 1), 1223.0),
        np.full((75, 1), 52.0),
        np.full(75, "rosenberg"),
        100.0,
        0.5,
        10000.0,
        seed=33,
        f0_hz=np.linspace(128.0, 96.0, 75),
        antiformant_present=np.zeros((75, 1), bool),
    )
    wave, _ = synthesize(vowel)
    res_vowel = track_waveform(wave, nasal_demo_config())
    vowel_var = float(res_vowel.variances[:, af_var_col].mean())
    report(10, vowel_var > nasal_var,
           f"antiformant frequency variance: vowel {vowel_var:.0f} Hz^2 "
           f"> nasal {nasal_var:.0f} Hz^2; the demo's antiformant std: "
           f"nasal frames {np.sqrt(nasal_var):.1f} Hz, vowel frames {np.sqrt(demo_vowel_var):.1f} Hz")


def test_criterion_11_smoother_variances_below_filter(corpus_white):
    fracs = []
    config = RunConfig(mode="filter")
    for (res_smooth, ref), seed in zip(corpus_white[1], CORPUS_SEEDS):
        spec = random_trajectory(4, 2.0, seed=seed, sample_rate_hz=16000.0)
        wave, _ = synthesize(spec)
        res_filter = track_waveform(wave, config)
        speech = res_filter.speech
        fracs.append(
            np.mean(res_smooth.variances[speech] <= res_filter.variances[speech] + 1e-12)
        )
    frac = float(np.mean(fracs))
    report(11, frac >= 0.95,
           f"smoothed variance <= filtered variance on {100 * frac:.1f} % of speech frames")


def test_criterion_12_real_cepstrum_mode(corpus_white, corpus_realcep):
    white_reports, _ = corpus_white
    real_reports, _ = corpus_realcep
    overall_ratio = corpus_overall(real_reports) / corpus_overall(white_reports)
    f1_white = float(np.mean([rep.per_formant[0] for rep in white_reports]))
    f1_real = float(np.mean([rep.per_formant[0] for rep in real_reports]))
    f1_ratio = f1_real / f1_white
    report(12, overall_ratio <= 2.0 and f1_ratio <= 1.25,
           f"real-cepstrum overall RMSE = {corpus_overall(real_reports):.1f} Hz, "
           f"{per_utterance(real_reports)}, overall ratio = {overall_ratio:.2f} (<= 2), "
           f"f1 ratio = {f1_ratio:.2f} (<= 1.25)")
