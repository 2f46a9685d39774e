"""What karma loads: no ``scipy`` module at all, neither at ``import karma``
nor on the default AR route, the real-cepstrum route, a WAV round trip or
a synthesized utterance written, read back and tracked; the ARMA fit
imports ``scipy.signal`` at its first call.  This is the one check that
the core runs without scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LOADED_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

IMPORT_ONLY = """
import karma
"""

TRACK = """
import karma
from karma.pipeline import RunConfig, track_waveform
from karma.synthesis import random_trajectory, synthesize
wave, _ = synthesize(random_trajectory(4, 1.0, seed=3, sample_rate_hz=16000.0))
track_waveform(wave, RunConfig(observation_source={source!r}))
"""

WAV_ROUND_TRIP = """
import os, tempfile
from karma.frontend import Waveform, read_wav, write_wav
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a.wav")
    write_wav(path, Waveform([0.0, 0.5, -0.5], 8000.0))
    read_wav(path)
"""

SYNTH_WAV_TRACK = """
import os, tempfile
from karma import RunConfig, read_wav, track_waveform, write_wav
from karma.synthesis import random_trajectory, synthesize
wave, _ = synthesize(random_trajectory(4, 1.0, seed=3, sample_rate_hz=16000.0))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a.wav")
    write_wav(path, wave)
    track_waveform(read_wav(path), RunConfig())
"""

ARMA_FIT = """
import json, sys
import numpy as np
from karma.arma import estimate_arma
before = "scipy.signal" in sys.modules
estimate_arma(np.random.default_rng(0).standard_normal(200), 2, 2)
print(json.dumps([before, "scipy.signal" in sys.modules]))
"""


def run_fresh(code: str):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "code",
    [
        IMPORT_ONLY,
        TRACK.format(source="arma_cepstrum"),
        TRACK.format(source="real_cepstrum"),
        WAV_ROUND_TRIP,
        SYNTH_WAV_TRACK,
    ],
    ids=["import", "default_track", "real_cepstrum_track", "wav_round_trip", "synthesized_wav_track"],
)
def test_loads_no_scipy(code):
    assert run_fresh(code + LOADED_SCIPY) == []


def test_arma_fit_imports_scipy_signal_at_its_first_call():
    assert run_fresh(ARMA_FIT) == [False, True]
