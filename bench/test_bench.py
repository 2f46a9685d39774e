"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

The last test runs every workload once in both modes (a few minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_karma()

import karma.pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from karma.arma import estimate_arma  # noqa: E402
from karma.tracker import TrackResult  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent, attrs=None):
    return tracing.Span(name, start, end, parent, 0, "u", attrs or {})


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a
        _span("a.inner", 1.5, 2.5, 1),  # grandchild: counts against a only
        _span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 3.0])


def test_pass_metrics_on_nested_spans():
    spans = [
        _span(tracing.ITEM_SPAN, 0.0, 1.0, -1, {"regularizations": 2}),
        _span("pipeline.build_observations", 0.0, 0.5, 0),
        _span("arma.estimate_arma", 0.1, 0.2, 1, {"gn_iters": 4, "converged": True}),
        _span("arma.estimate_arma", 0.2, 0.4, 1, {"gn_iters": 2, "converged": False}),
        _span("tracker.eks_smooth", 0.5, 0.9, 0, {"frames": 10, "coasted": 3}),
    ]
    metrics = tracing.pass_metrics(spans, tracing.self_times(spans))
    assert metrics["pipeline.build_observations.ms"] == pytest.approx(500.0)
    assert metrics["pipeline.build_observations.self_ms"] == pytest.approx(200.0)
    assert metrics["arma.estimate_arma.calls"] == 2
    assert metrics["arma.gn_iters"] == 3
    assert metrics["arma.converged_frac"] == 0.5
    assert metrics["tracker.forward_frames"] == 10
    assert metrics["tracker.coast_frac"] == pytest.approx(0.3)
    assert metrics["tracker.regularizations"] == 2


def test_layer_metrics_cover_every_per_layer_metric():
    spans = [_span("synthesis.synthesize", 0.0, 0.1, -1)]
    spans[0].pass_index = -1
    spans.append(_span(tracing.ITEM_SPAN, 0.2, 0.3, -1))
    produced = set(tracing.layer_metrics(spans)) | {"trace.overhead_ms"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_probes_return_what_the_program_returns_and_are_removed():
    frame = np.random.default_rng(3).standard_normal(400)
    direct = estimate_arma(frame, 6, 4)
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = karma.pipeline.estimate_arma(frame, 6, 4)
    assert karma.pipeline.estimate_arma is estimate_arma
    assert np.array_equal(wrapped.ar, direct.ar) and np.array_equal(wrapped.ma, direct.ma)
    (span,) = tracer.spans
    assert span.name == "arma.estimate_arma" and span.attrs["gn_iters"] >= 0


def _track(covariances, n_frames=2):
    dim = covariances.shape[-1]
    return TrackResult(
        means=np.zeros((n_frames, dim)),
        covariances=covariances,
        speech=np.ones(n_frames, dtype=bool),
        formant_active=np.ones((n_frames, dim // 2), dtype=bool),
        antiformant_active=np.ones((n_frames, 0), dtype=bool),
        n_formants=dim // 2,
        n_antiformants=0,
        n_cepstra=15,
        sample_rate_hz=7000.0,
        hop_s=0.01,
    )


def test_output_check():
    good = np.stack([np.diag([4e4, 100.0])] * 2)
    assert workloads.check_track(_track(good), 2) is None
    assert "frames" in workloads.check_track(_track(good), 3)
    asym = good.copy()
    asym[1, 0, 1] = 1.0
    assert workloads.check_track(_track(asym), 2) == "asymmetric covariance"
    indefinite = good.copy()
    indefinite[0] = [[1.0, 2.0], [2.0, 1.0]]
    assert "semidefinite" in workloads.check_track(_track(indefinite), 2)


def _inputs(part, seed):
    return [
        (u.wave.samples.tobytes(), u.reference.means.tobytes()) if hasattr(u, "wave") else u
        for u in part.build(seed)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_reproduces_its_inputs_bit_for_bit(name):
    for part in workloads.WORKLOADS[name].parts:
        assert _inputs(part, 7) == _inputs(part, 7)


def test_corpus_seed_changes_only_the_white_noise_excitation():
    first, second = _inputs(workloads.CORPUS_AR, 0), _inputs(workloads.CORPUS_AR, 1)
    changed = [a[0] != b[0] for a, b in zip(first, second)]
    assert changed == [True, False] * 3
    assert all(a[1] == b[1] for a, b in zip(first, second))


def test_scaled_time_is_wall_time_at_the_reference_pace():
    ref = run.PROBE_REF_S
    assert run.scaled(2.0, ref, ref) == pytest.approx(2.0)
    assert run.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert run.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_median_seconds_is_per_item():
    first, second, third = run.Pass(), run.Pass(), run.Pass()
    first.scaled, second.scaled, third.scaled = [1.0, 5.0], [3.0, 4.0], [2.0, 9.0]
    assert run.median_seconds([first, second, third]) == [2.0, 5.0]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["correct"] and result["attempted"] >= 1

