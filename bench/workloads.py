"""The benchmark's workloads: seeded inputs, one item's call, output checks.

A workload joins two parts.  A part is a list of items (utterances, or
one-trial oracle runs) that one caller runs in order,
each call starting when the previous one has returned (a closed loop with
one client).  The program sees only the waveforms and specs built here.

* ``corpus_nasal`` = ``corpus_ar`` + ``nasal_arma``: per-frame model fitting
  (AR and Gauss-Newton ARMA) and the smoother.
* ``long_oracle`` = ``long_filter_realcep`` + ``pf_oracle``: the tracker
  over a long input, the real cepstrum and the particle filter; no model
  fitting.

The trajectory seeds are fixed, so accuracy figures stay comparable from
round to round; ``--seed`` varies what can vary without changing what the
corpus measures:

* ``corpus_ar``: the white-noise excitation of the three white-noise
  utterances (the glottal-pulse source of the other three has no noise);
* ``pf_oracle``: the trial draws and particle seeds of the oracle run;
* ``long_filter_realcep`` and ``nasal_arma``: nothing.  Their tracks react
  chaotically to any change of the input samples (another excitation draw
  of the 60 s utterance, or a noise floor 60 dB down on the nasal demo,
  moves pooled formant error between about 50 Hz and 700 Hz), so a seeded
  variant would measure the draw, not the code.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import karma.evaluation as evaluation
import karma.particle as particle
import karma.pipeline as pipeline
import karma.synthesis as synthesis
from karma.frontend import Waveform
from karma.pipeline import RunConfig
from karma.tracker import TrackActivation, TrackResult

CORPUS_SEEDS = range(100, 106)
LONG_SEED = 200
NASAL_SEEDS = range(715, 721)
NASAL_CONFIG = RunConfig(
    target_sample_rate_hz=10000.0,
    frame_ms=100.0,
    overlap=0.5,
    gamma=0.9,
    lpc_order=6,
    ma_order=4,
    n_cepstra=15,
    n_formants=2,
    n_antiformants=1,
)
NASAL_SKIP_FRAMES = 10  # tracker start-up, left out of the error as in the nasal demo
PF_TRIALS = 8  # one-trial runs per pass
PF_PARTICLES = (100, 1000)
COV_TOL = 1e-9  # relative to each covariance matrix's largest entry


def check_track(result: TrackResult, n_frames: int) -> str | None:
    """Why ``result`` fails the output check, or None when it passes.

    The result must have the reference frame count, finite means and
    symmetric covariances whose smallest eigenvalue is >= -tol.
    """
    if result.n_frames != n_frames:
        return f"{result.n_frames} frames, reference has {n_frames}"
    if not np.all(np.isfinite(result.means)):
        return "non-finite means"
    cov = result.covariances
    if not np.all(np.isfinite(cov)):
        return "non-finite covariances"
    scale = np.maximum(np.abs(cov).max(axis=(1, 2)), 1.0)
    if np.any(np.abs(cov - cov.swapaxes(1, 2)).max(axis=(1, 2)) > COV_TOL * scale):
        return "asymmetric covariance"
    if np.any(np.linalg.eigvalsh(cov)[:, 0] < -COV_TOL * scale):
        return "covariance not positive semidefinite"
    return None


@dataclass(frozen=True)
class Utterance:
    ident: str
    wave: Waveform
    reference: TrackResult
    config: RunConfig
    activation: TrackActivation | None = None
    scored_from: int = 0
    n_scored: int = 3
    write_csv: bool = False
    attempts = 1


@dataclass
class Outcome:
    """What one item produced: failed out of attempted, why, and squared errors."""

    attempted: int
    failed: int
    reasons: list[str]
    sq_err: dict[str, tuple[float, int]]  # metric -> (sum of squares, count)


class AudioPart:
    """Utterances tracked with ``track_waveform`` and scored against the truth."""

    def __init__(self, name: str, build):
        self.name = name
        self._build = build

    def build(self, seed: int) -> list[Utterance]:
        return self._build(seed)

    @staticmethod
    def signal_s(items) -> float:
        return sum(u.wave.duration_s for u in items)

    @staticmethod
    def call(u: Utterance, scratch: Path):
        result = pipeline.track_waveform(u.wave, u.config, activation=u.activation)
        if u.write_csv:
            evaluation.write_tracks(result, scratch / f"{u.ident}.csv")
        ref = u.reference
        scored = ref.speech & (np.arange(ref.n_frames) >= u.scored_from)
        report = evaluation.rmse(result, ref, mask=scored, formant_count=u.n_scored, offset=0)
        return result, report, scored

    @staticmethod
    def judge(u: Utterance, raw) -> Outcome:
        result, report, scored = raw
        failure = check_track(result, u.reference.n_frames)
        sq = {"f_rmse_hz": (float(np.sum(report.per_formant**2)) * report.frames_counted,
                            u.n_scored * report.frames_counted)}
        if u.reference.n_antiformants:
            nasal = scored & u.reference.antiformant_active[:, 0]
            err = result.antiformant_freqs[nasal, 0] - u.reference.antiformant_freqs[nasal, 0]
            sq["af_rmse_hz"] = (float(err @ err), int(err.size))
        return Outcome(1, int(failure is not None), [failure] if failure else [], sq)


def _corpus_ar(seed: int) -> list[Utterance]:
    items = []
    for k, traj_seed in enumerate(CORPUS_SEEDS):
        source = "white_noise" if k % 2 == 0 else "rosenberg"
        spec = synthesis.random_trajectory(4, 10.0, seed=traj_seed, sample_rate_hz=16000.0, source=source)
        spec = dataclasses.replace(spec, seed=traj_seed + 1000 * seed)
        wave, ref = synthesis.synthesize(spec)
        items.append(Utterance(f"utt{traj_seed}", wave, ref, RunConfig(), write_csv=True))
    return items


def _long_filter_realcep(seed: int) -> list[Utterance]:
    spec = synthesis.random_trajectory(4, 60.0, seed=LONG_SEED, sample_rate_hz=16000.0)
    wave, ref = synthesis.synthesize(spec)
    config = RunConfig(mode="filter", observation_source="real_cepstrum")
    return [Utterance(f"utt{LONG_SEED}", wave, ref, config)]


def _nasal_arma(seed: int) -> list[Utterance]:
    items = []
    for spec_seed in NASAL_SEEDS:
        wave, ref = synthesis.synthesize(synthesis.nasal_utterance_spec(seed=spec_seed))
        activation = TrackActivation(ref.formant_active, ref.antiformant_active)
        items.append(
            Utterance(
                f"nasal{spec_seed}",
                wave,
                ref,
                NASAL_CONFIG,
                activation=activation,
                scored_from=NASAL_SKIP_FRAMES,
                n_scored=2,
            )
        )
    return items


@dataclass(frozen=True)
class OracleRun:
    ident: str
    seed: int
    attempts = 1  # one trial


class OraclePart:
    """``ekf_pf_benchmark`` on its own simulated state-space draws.

    Each item is a one-trial run with its own seed: the host's pace,
    probed on either side of an item, changes little during a short one.
    The EKF and particle-filter results are checked inside the call by thin
    wrappers at ``karma.particle``'s import sites; a check costs well under
    a millisecond against the filtering.
    """

    name = "pf_oracle"

    @staticmethod
    def build(seed: int) -> list[OracleRun]:
        return [OracleRun(f"trial{k}", PF_TRIALS * seed + k) for k in range(PF_TRIALS)]

    @staticmethod
    def signal_s(items) -> float:
        setup = particle.BenchmarkSetup()
        hop_s = setup.make_params().hop_s
        return len(items) * setup.n_frames * hop_s

    @staticmethod
    def call(run: OracleRun, scratch: Path):
        failures: list[str] = []
        with _checked(failures, particle.BenchmarkSetup().n_frames):
            summary = particle.ekf_pf_benchmark(
                trials=1, particle_counts=PF_PARTICLES, seed=run.seed
            )
        return summary, failures

    @staticmethod
    def judge(run: OracleRun, raw) -> Outcome:
        summary, failures = raw
        per_trial = {"ekf_rmse_hz": summary["ekf_per_trial"]}
        for count, values in summary["pf_per_trial"].items():
            per_trial[f"pf{count}_rmse_hz"] = values
        if not all(np.all(np.isfinite(v)) for v in per_trial.values()):
            failures = failures + ["non-finite RMSE"]
        setup = particle.BenchmarkSetup()
        per_trial_errors = setup.n_frames * setup.n_formants
        sq = {
            name: (float(np.sum(v**2)) * per_trial_errors, int(v.size) * per_trial_errors)
            for name, v in per_trial.items()
        }
        sq["f_rmse_hz"] = sq["ekf_rmse_hz"]
        return Outcome(1, int(bool(failures)), failures, sq)


@contextmanager
def _checked(failures: list[str], n_frames: int):
    """Check every track the oracle computes, at ``karma.particle``'s import sites."""
    originals = {name: getattr(particle, name) for name in ("ekf_filter", "pf_track")}

    def checking(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            failure = check_track(result, n_frames)
            if failure:
                failures.append(f"{name}: {failure}")
            return result

        return wrapper

    try:
        for name, fn in originals.items():
            setattr(particle, name, checking(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(particle, name, fn)


@dataclass(frozen=True)
class Item:
    part: object
    inner: object

    @property
    def ident(self) -> str:
        return f"{self.part.name}/{self.inner.ident}"

    @property
    def attempts(self) -> int:
        return self.inner.attempts


@dataclass(frozen=True)
class Workload:
    parts: tuple

    def build(self, seed: int) -> list[Item]:
        return [Item(part, inner) for part in self.parts for inner in part.build(seed)]

    @staticmethod
    def signal_s(items) -> float:
        return sum(item.part.signal_s([item.inner]) for item in items)

    @staticmethod
    def memory_items(items) -> list[Item]:
        """The first item of each part: a part's items are the same size."""
        firsts = {}
        for item in items:
            firsts.setdefault(item.part.name, item)
        return list(firsts.values())


CORPUS_AR = AudioPart("corpus_ar", _corpus_ar)
LONG_FILTER_REALCEP = AudioPart("long_filter_realcep", _long_filter_realcep)
NASAL_ARMA = AudioPart("nasal_arma", _nasal_arma)
PF_ORACLE = OraclePart()

WORKLOADS = {
    "corpus_nasal": Workload((CORPUS_AR, NASAL_ARMA)),
    "long_oracle": Workload((LONG_FILTER_REALCEP, PF_ORACLE)),
}
