"""In-memory spans around the calls into karma's layers.

A traced run swaps module attributes at the sites where karma's own code
looks them up (``karma.pipeline.<fn>``, ``karma.particle.<fn>``) and at the
entry points the benchmark calls (``karma.evaluation``, ``karma.synthesis``)
for wrappers that record one span per call: name, start, end, parent span,
pass number and the utterance or trial it belongs to.  Nothing under
``src/`` changes; the originals are put back when the traced block ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    pass_index: int  # -1 while inputs are built
    item: str
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it is looked up and what the span is called.

    ``extra_kwargs`` are added to every call; ``finish`` maps the raw result
    and the bound call arguments to the value handed back to the caller plus
    span attributes.  It runs after the span has closed.
    """

    module: str
    attr: str
    name: str
    extra_kwargs: tuple = ()
    finish: Callable | None = None


def _frames(result, call):
    return result, {"frames": result.n_frames}


def _forward(result, call):
    n = result.n_frames
    return result, {"frames": n, "coasted": n - int(result.speech.sum())}


def _arma_fit(result, call):
    model, info = result
    return model, {"gn_iters": len(info["objective"]) - 1, "converged": bool(info["converged"])}


def _particle_steps(result, call):
    return result, {"frames": result.n_frames, "particles": int(call.arguments["n_particles"])}


def _bytes_written(result, call):
    return result, {"bytes": os.path.getsize(call.arguments["path"])}


PROBES = (
    Probe("karma.pipeline", "track_waveform", "pipeline.track_waveform"),
    Probe("karma.pipeline", "build_observations", "pipeline.build_observations"),
    Probe("karma.pipeline", "resample", "frontend.resample"),
    Probe("karma.pipeline", "window_frames", "frontend.window_frames", finish=_frames),
    Probe("karma.pipeline", "preemphasize", "frontend.preemphasize"),
    Probe("karma.pipeline", "detect_activity", "frontend.detect_activity"),
    Probe("karma.pipeline", "estimate_ar", "arma.estimate_ar"),
    Probe(
        "karma.pipeline",
        "estimate_arma",
        "arma.estimate_arma",
        extra_kwargs=(("full_output", True),),
        finish=_arma_fit,
    ),
    Probe("karma.pipeline", "arma_to_cepstrum", "cepstrum.arma_to_cepstrum"),
    Probe("karma.pipeline", "real_cepstrum", "cepstrum.real_cepstrum"),
    Probe("karma.pipeline", "eks_smooth", "tracker.eks_smooth", finish=_forward),
    Probe("karma.pipeline", "ekf_filter", "tracker.ekf_filter", finish=_forward),
    Probe("karma.pipeline", "estimate_transition", "tracker.estimate_transition"),
    Probe("karma.particle", "ekf_filter", "particle.ekf_filter", finish=_forward),
    Probe("karma.particle", "pf_track", "particle.pf_track", finish=_particle_steps),
    Probe("karma.evaluation", "write_tracks", "evaluation.write_tracks", finish=_bytes_written),
    Probe("karma.evaluation", "rmse", "evaluation.rmse"),
    Probe("karma.synthesis", "synthesize", "synthesis.synthesize"),
)

ITEM_SPAN = "item"


class Tracer:
    """Collects spans in memory; ``installed`` swaps the probes in and out."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.pass_index = -1
        self.item = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None):
        if item is not None:
            self.item = item
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), float("nan"), parent, self.pass_index, self.item)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, probe: Probe, original):
        extra = dict(probe.extra_kwargs)
        signature = inspect.signature(original) if probe.finish else None

        def wrapper(*args, **kwargs):
            with self.span(probe.name) as record:
                result = original(*args, **kwargs, **extra)
            if probe.finish is None:
                return result
            call = signature.bind(*args, **kwargs, **extra)
            call.apply_defaults()
            returned, attrs = probe.finish(result, call)
            record.attrs.update(attrs)
            return returned

        return wrapper

    @contextmanager
    def installed(self, probes=PROBES):
        patched = []
        try:
            for probe in probes:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
                setattr(module, probe.attr, self._wrap(probe, original))
                patched.append((module, probe.attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        """Spans as plain records, times in seconds since the tracer started."""
        return [
            {
                "name": s.name,
                "start": s.start - self.origin,
                "end": s.end - self.origin,
                "parent": s.parent,
                "pass": s.pass_index,
                "item": s.item,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


TIMED_SPANS = (
    "frontend.resample",
    "frontend.window_frames",
    "frontend.preemphasize",
    "frontend.detect_activity",
    "arma.estimate_ar",
    "arma.estimate_arma",
    "cepstrum.arma_to_cepstrum",
    "cepstrum.real_cepstrum",
    "pipeline.track_waveform",
    "pipeline.build_observations",
    "tracker.eks_smooth",
    "tracker.ekf_filter",
    "tracker.estimate_transition",
    "particle.pf_track",
    "particle.ekf_filter",
    "evaluation.write_tracks",
    "evaluation.rmse",
)
COUNTED_SPANS = (
    "arma.estimate_ar",
    "arma.estimate_arma",
    "cepstrum.arma_to_cepstrum",
    "cepstrum.real_cepstrum",
    "tracker.eks_smooth",
    "tracker.ekf_filter",
    "particle.pf_track",
)
FORWARD_SPANS = ("tracker.eks_smooth", "tracker.ekf_filter", "particle.ekf_filter")


def _mean(values, empty=0.0) -> float:
    return float(statistics.fmean(values)) if values else empty


def pass_metrics(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """Per-layer figures for the spans of one traced pass and their self times."""
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def picked(name):
        return [spans[i] for i in by_name.get(name, ())]

    out = {}
    for name in TIMED_SPANS:
        out[f"{name}.ms"] = 1e3 * sum(s.end - s.start for s in picked(name))
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = float(len(picked(name)))
    out["pipeline.build_observations.self_ms"] = 1e3 * sum(
        selfs[i] for i in by_name.get("pipeline.build_observations", ())
    )
    out["frontend.frames"] = float(sum(s.attrs["frames"] for s in picked("frontend.window_frames")))
    fits = picked("arma.estimate_arma")
    out["arma.gn_iters"] = _mean([s.attrs["gn_iters"] for s in fits])
    out["arma.converged_frac"] = _mean([float(s.attrs["converged"]) for s in fits])
    forward = [s for name in FORWARD_SPANS for s in picked(name)]
    frames = sum(s.attrs["frames"] for s in forward)
    out["tracker.forward_frames"] = float(frames)
    out["tracker.coast_frac"] = sum(s.attrs["coasted"] for s in forward) / frames if frames else 0.0
    out["tracker.regularizations"] = float(
        sum(s.attrs.get("regularizations", 0) for s in picked(ITEM_SPAN))
    )
    out["particle.particle_steps"] = float(
        sum(s.attrs["frames"] * s.attrs["particles"] for s in picked("particle.pf_track"))
    )
    out["evaluation.write_tracks.bytes"] = float(
        sum(s.attrs["bytes"] for s in picked("evaluation.write_tracks"))
    )
    return out


def layer_metrics(spans: list[Span], part: str | None = None) -> dict[str, float]:
    """Best over traced passes of each pass's figures, plus set-up synthesis time.

    Counts repeat exactly from pass to pass; for times the smallest is
    taken, since a shared host only ever slows a call down.  With ``part``,
    only the spans of that part's items count.
    """
    passes: dict[int, tuple[list[Span], list[float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        if part is not None and span.item.split("/")[0] != part:
            continue
        group = passes.setdefault(span.pass_index, ([], []))
        group[0].append(span)
        group[1].append(own)
    setup = passes.pop(-1, ([], []))[0]
    if not passes:
        raise ValueError("no traced pass")
    per_pass = [pass_metrics(*group) for _, group in sorted(passes.items())]
    out = {name: float(min(p[name] for p in per_pass)) for name in per_pass[0]}
    out["synthesis.synthesize.ms"] = 1e3 * sum(
        s.end - s.start for s in setup if s.name == "synthesis.synthesize"
    )
    return out
