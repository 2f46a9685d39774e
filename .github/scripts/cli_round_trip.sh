#!/usr/bin/env bash
# Command-line round trips: every subcommand on the AR, ARMA and real-cepstrum
# routes, and the exit codes of runtime failures (1) and usage errors (2).
# Needs `karma` on the PATH (pip install -e .); works in a fresh temporary
# directory.  Run from anywhere:
#
#     bash .github/scripts/cli_round_trip.sh
set -euo pipefail
# a warning is a failure: a default run that starts to warn about its tracks, say, must not pass
export PYTHONWARNINGS=error::UserWarning
cd "$(mktemp -d)"

karma synth nan --out n.wav --ref r.csv && karma track n.wav --out t.csv && karma eval r.csv r.csv --formants 2
# an output path in a missing directory is a runtime failure: exit 1
code=0; karma track n.wav --out missing/t.csv || code=$?; test "$code" -eq 1
# ... and synth checks both its outputs before writing either
code=0; karma synth nan --out n2.wav --ref missing/r.csv || code=$?; test "$code" -eq 1 && test ! -e n2.wav
# the smoother leaves the filter's last frame as it is: both modes write the same last row
karma track n.wav --mode filter --out tf.csv && karma track n.wav --mode smooth --out ts.csv
test "$(tail -n 1 tf.csv)" = "$(tail -n 1 ts.csv)"
# the ARMA route, with the nasal demo's ARMA(6,4) analysis settings
python -c "from karma.synthesis import nasal_demo_config; nasal_demo_config().save('nasal.json')"
karma track n.wav --config nasal.json --out a.csv > a.txt && karma eval a.csv r.csv --formants 2
grep -q "^  antiformant 1:" a.txt
# antiformants only: the state is (f'_1, b'_1), and so are the CSV columns
echo '{"target_sample_rate_hz": 10000.0, "frame_ms": 100.0, "overlap": 0.5, "gamma": 0.9, "lpc_order": 6, "ma_order": 4, "n_formants": 0, "n_antiformants": 1}' > af_only.json
karma track n.wav --config af_only.json --out af.csv
test "$(head -n 1 af.csv)" = "time_s,af1,ab1,vaf1,vab1,speech"
karma synth nan --seed 716 --out n716.wav --ref r716.csv
# a demo seed whose F1 walk is reflected at 50 Hz, synthesized, tracked and scored
karma synth nan --seed 155 --out n155.wav --ref r155.csv && karma track n155.wav --config nasal.json --out t155.csv && karma eval t155.csv r155.csv --formants 2
# filter mode on the real-cepstrum route (the demo's framing, so the frames match r.csv)
echo '{"target_sample_rate_hz": 10000.0, "frame_ms": 100.0, "overlap": 0.5, "gamma": 0.9, "n_cepstra": 15, "n_formants": 2, "n_antiformants": 1, "mode": "filter", "observation_source": "real_cepstrum"}' > realcep.json
karma track n.wav --config realcep.json --out f.csv && karma eval f.csv r.csv --formants 2
# the same analysed at 8 kHz, so the 10 kHz demo goes through the resampler; the 100 ms frames
# at 50 % overlap still match r.csv's 75
echo '{"target_sample_rate_hz": 8000.0, "frame_ms": 100.0, "overlap": 0.5, "gamma": 0.9, "n_cepstra": 15, "n_formants": 2, "n_antiformants": 1, "mode": "filter", "observation_source": "real_cepstrum"}' > realcep8k.json
karma track n.wav --config realcep8k.json --out f8k.csv && karma eval f8k.csv r.csv --formants 2
# fewer cepstra than the (unused) lpc_order: valid on the real-cepstrum route
echo '{"target_sample_rate_hz": 10000.0, "frame_ms": 100.0, "overlap": 0.5, "gamma": 0.9, "n_cepstra": 10, "n_formants": 2, "n_antiformants": 1, "mode": "filter", "observation_source": "real_cepstrum"}' > realcep10.json
karma track n.wav --config realcep10.json --out f10.csv && karma eval f10.csv r.csv --formants 2
# the particle-filter oracle
karma compare-pf --trials 1 --particles 50 --out pf.csv
# a repeated particle count is a usage error: exit 2
code=0; karma compare-pf --trials 1 --particles 50,50 || code=$?; test "$code" -eq 2
# a spec file: a voiced random trajectory saved, synthesized, tracked and scored
python -c "from karma.synthesis import random_trajectory, save_spec; save_spec(random_trajectory(4, 2.0, seed=3, sample_rate_hz=16000.0, source='rosenberg'), 'spec.json')"
karma synth spec.json --out s.wav --ref sr.csv && karma track s.wav --out st.csv && karma eval st.csv sr.csv
# a spec at 75 % overlap with a silence frame: each sample sums four windowed frames, so the
# block overlap-add's general case runs from the command line
python -c "
from dataclasses import replace
from karma.synthesis import random_trajectory, save_spec
spec = random_trajectory(4, 2.0, seed=4, sample_rate_hz=16000.0, source='rosenberg', overlap_fraction=0.75)
save_spec(replace(spec, sources=spec.sources.tolist()[:100] + ['silence'] + spec.sources.tolist()[101:]), 'ov.json')
"
echo '{"overlap": 0.75}' > ov_config.json
karma synth ov.json --out ov.wav --ref ovr.csv && karma track ov.wav --config ov_config.json --out ovt.csv && karma eval ovt.csv ovr.csv
# a label file (2 s at 16 kHz: 32000 samples) fixes the speech mask, tracked and scored
printf '0 1600 h#\n1600 30400 aa\n30400 32000 pau\n' > s.lbl
karma track s.wav --labels s.lbl --out sl.csv && karma eval sl.csv sr.csv
# a malformed label file (a line with two fields) is a usage error: exit 2
printf '0 1600\n' > bad.lbl
code=0; karma track s.wav --labels bad.lbl --out bl.csv || code=$?; test "$code" -eq 2
# a malformed spec (a formant above the Nyquist rate) is a usage error: exit 2
echo '{"sample_rate_hz": 8000.0, "frame_ms": 20.0, "overlap_fraction": 0.5, "frames": [{"formant_freqs": [5000.0], "formant_bws": [80.0]}]}' > bad.json
code=0; karma synth bad.json || code=$?; test "$code" -eq 2
# an AR order above the frame length (140 samples at 7 kHz) is a config error: exit 2
echo '{"lpc_order": 200, "n_cepstra": 200}' > long_order.json
code=0; karma track n.wav --config long_order.json --out o.csv || code=$?; test "$code" -eq 2
# a process std whose square overflows is a config error, caught before the analysis: exit 2
echo '{"freq_process_std": 1e200}' > overflow_std.json
code=0; karma track n.wav --config overflow_std.json --out os.csv || code=$?; test "$code" -eq 2
echo "command-line round trips passed in $PWD"
