"""Frozen accuracy record: per-seed tracking error, gated against a stored record.

``accuracy_record.json`` holds per-seed frequency RMSE (and ±2σ coverage,
which is recorded but not gated) for six sets:

* ``nasal_f`` / ``nasal_af``: the nasal ARMA(6,4) demo on seeds 700–739,
  scored after the tracker's start-up frames; pooled formant RMSE and
  antiformant RMSE on nasal frames.  Each seed also records whether it meets criterion 8.
* ``corpus_white_noise`` / ``corpus_rosenberg``: 10 s random four-resonance
  utterances on seeds 100–111 per source, default ``RunConfig``, the first
  three formants over speech frames.
* ``long_realcep``: the 60 s real-cepstrum filter-mode utterance (seed 200).
* ``oracle_ekf``: the per-trial EKF RMSEs of
  ``ekf_pf_benchmark(trials=8, particle_counts=(100,), seed=0)``.

A change that moves numerics (a different solve, a different fit) passes
when no set's median rises by more than 1 %, no seed rises by more than
max(5 %, 1 Hz) and criterion 8 holds on no fewer seeds than recorded.
The record is generated once, at the commit it names, with

    PYTHONPATH=src python tests/test_accuracy_record.py COMMIT > tests/accuracy_record.json

and the margins are fixed; an improvement does not tighten them.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from karma.particle import ekf_pf_benchmark
from karma.pipeline import RunConfig, track_waveform
from karma.synthesis import random_trajectory, synthesize

from conftest import criterion_8_holds, nasal_rows, nasal_scores, track_nasal

RECORD_PATH = Path(__file__).with_name("accuracy_record.json")
NASAL_SEEDS = range(700, 740)
CORPUS_SEEDS = range(100, 112)
CORPUS_SOURCES = ("white_noise", "rosenberg")
LONG_SEED = 200
ORACLE_TRIALS = 8

MEDIAN_MARGIN = 0.01  # relative rise allowed in a set's median
SEED_MARGIN = 0.05  # relative rise allowed on one seed ...
SEED_FLOOR_HZ = 1.0  # ... or this many Hz, whichever is larger


def _errors(result, reference, rows, n_formants):
    """Frequency errors and posterior standard deviations of the first formants on ``rows``."""
    err = result.formant_freqs[rows, :n_formants] - reference.formant_freqs[rows, :n_formants]
    std = np.sqrt(result.variances[rows, :n_formants])
    return err, std


def _rmse(err) -> float:
    return float(np.sqrt(np.mean(np.square(err))))


def _coverage(err, std) -> float:
    return float(np.mean(np.abs(err) <= 2.0 * std))


def _nasal(seed: int) -> dict:
    res, ref = track_nasal(seed)
    keep, nasal = nasal_rows(res, ref)
    err, std = _errors(res, ref, keep, res.n_formants)
    af_err = res.antiformant_freqs[nasal, 0] - ref.antiformant_freqs[nasal, 0]
    af_std = np.sqrt(res.variances[nasal, 2 * res.n_formants])
    per_formant, af_rmse = nasal_scores(res, ref)
    return dict(
        f_rmse=_rmse(err),
        f_coverage=_coverage(err, std),
        af_rmse=af_rmse,
        af_coverage=_coverage(af_err, af_std),
        criterion_8=criterion_8_holds(per_formant, af_rmse),
    )


def _scored(spec, config) -> tuple[float, float]:
    wave, ref = synthesize(spec)
    res = track_waveform(wave, config)
    err, std = _errors(res, ref, ref.speech, 3)
    return _rmse(err), _coverage(err, std)


def _set(seeds, rmse, coverage=None) -> dict:
    entry = {"seeds": list(seeds), "rmse_hz": list(rmse)}
    if coverage is not None:
        entry["coverage_2sigma"] = list(coverage)
    return entry


def compute_record() -> dict:
    """Recompute every set of the record from the current code."""
    sets = {}
    nasal = [_nasal(seed) for seed in NASAL_SEEDS]
    for kind in ("f", "af"):
        sets[f"nasal_{kind}"] = _set(
            NASAL_SEEDS, [n[f"{kind}_rmse"] for n in nasal], [n[f"{kind}_coverage"] for n in nasal]
        )
    for source in CORPUS_SOURCES:
        specs = [
            random_trajectory(4, 10.0, seed=seed, sample_rate_hz=16000.0, source=source)
            for seed in CORPUS_SEEDS
        ]
        sets[f"corpus_{source}"] = _set(CORPUS_SEEDS, *zip(*(_scored(s, RunConfig()) for s in specs)))
    long_spec = random_trajectory(4, 60.0, seed=LONG_SEED, sample_rate_hz=16000.0)
    long_config = RunConfig(mode="filter", observation_source="real_cepstrum")
    sets["long_realcep"] = _set([LONG_SEED], *zip(_scored(long_spec, long_config)))
    oracle = ekf_pf_benchmark(trials=ORACLE_TRIALS, particle_counts=(100,), seed=0)
    sets["oracle_ekf"] = _set(range(ORACLE_TRIALS), [float(v) for v in oracle["ekf_per_trial"]])
    return {
        "sets": sets,
        "criterion_8": {"seeds": list(NASAL_SEEDS), "passed": [n["criterion_8"] for n in nasal]},
    }


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD_PATH.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return compute_record()


SET_NAMES = (
    "nasal_f",
    "nasal_af",
    "corpus_white_noise",
    "corpus_rosenberg",
    "long_realcep",
    "oracle_ekf",
)


def test_record_covers_every_set(record, current):
    assert sorted(record["sets"]) == sorted(SET_NAMES)
    for name in SET_NAMES:
        assert current["sets"][name]["seeds"] == record["sets"][name]["seeds"], name
    assert current["criterion_8"]["seeds"] == record["criterion_8"]["seeds"]


@pytest.mark.parametrize("name", SET_NAMES)
def test_set_median_within_margin(record, current, name):
    old = float(np.median(record["sets"][name]["rmse_hz"]))
    new = float(np.median(current["sets"][name]["rmse_hz"]))
    assert new <= old * (1.0 + MEDIAN_MARGIN), f"{name}: median {old:.3f} -> {new:.3f} Hz"


@pytest.mark.parametrize("name", SET_NAMES)
def test_no_seed_worse_beyond_margin(record, current, name):
    old = np.asarray(record["sets"][name]["rmse_hz"])
    new = np.asarray(current["sets"][name]["rmse_hz"])
    limit = old + np.maximum(SEED_MARGIN * old, SEED_FLOOR_HZ)
    worse = [
        f"seed {seed}: {o:.3f} -> {n:.3f} Hz"
        for seed, o, n, lim in zip(record["sets"][name]["seeds"], old, new, limit)
        if not n <= lim
    ]
    assert not worse, f"{name}: " + "; ".join(worse)


def test_criterion_8_count_holds(record, current):
    old = sum(record["criterion_8"]["passed"])
    new = sum(current["criterion_8"]["passed"])
    assert new >= old, f"criterion 8 holds on {new}/{len(NASAL_SEEDS)} seeds, recorded {old}"


if __name__ == "__main__":
    json.dump({"commit": sys.argv[1], **compute_record()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
