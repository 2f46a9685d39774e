"""What ``import karma`` loads: the default route imports neither
``scipy.signal`` (which pulls in ``scipy.stats``) nor ``scipy.interpolate``;
the ARMA fit imports ``scipy.signal`` at its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy.signal", "scipy.interpolate", "scipy.stats")

DEFAULT_TRACK = """
import json, sys
import karma
from karma.pipeline import RunConfig, track_waveform
from karma.synthesis import random_trajectory, synthesize
wave, _ = synthesize(random_trajectory(4, 1.0, seed=3, sample_rate_hz=16000.0))
track_waveform(wave, RunConfig())
print(json.dumps([m for m in {heavy!r} if m in sys.modules]))
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


def test_default_track_loads_no_signal_interpolate_or_stats():
    assert run_fresh(DEFAULT_TRACK.format(heavy=HEAVY)) == []


def test_arma_fit_imports_scipy_signal_at_its_first_call():
    assert run_fresh(ARMA_FIT) == [False, True]
