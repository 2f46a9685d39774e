"""Check that karma's scipy-free core loads no scipy module.

Imports karma, then synthesizes one second of speech, writes and reads it
back as a WAV file and tracks it on the AR route, failing if any scipy
module was loaded at either point.  Run from the repository root:

    PYTHONPATH=src python .github/scripts/check_scipy_free.py
"""

import sys
import tempfile
from pathlib import Path


def scipy_modules() -> list[str]:
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]


import karma  # noqa: E402  (after the helper, so the check sees only this import)

assert not scipy_modules(), scipy_modules()

from karma import RunConfig, read_wav, track_waveform, write_wav  # noqa: E402
from karma.synthesis import random_trajectory, synthesize  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "a.wav"
    wave, _ = synthesize(random_trajectory(4, 1.0, seed=3, sample_rate_hz=16000.0))
    write_wav(path, wave)
    track_waveform(read_wav(path), RunConfig())
loaded = scipy_modules()
assert not loaded, loaded
print("karma imported, synthesized, round-tripped a WAV file and tracked it without scipy")
