#!/usr/bin/env python3
"""karma benchmark: seeded synthetic workloads through karma's public API.

    python3 bench/run.py --workload corpus_nasal --seed 0 --seconds 50 --trace 0

Run from a source checkout; karma is imported from ``src/``, nothing is
installed.  BLAS threads are pinned to 1.  One caller runs the workload's
items in order (closed loop).  After a warm-up pass, timed passes run
for a window of ``--seconds``.  A short calibration probe runs between
items; an item's time is scaled to the probe's reference pace (see
``host_pace``), which takes out most of a shared host's slowdowns.
Untraced (``--trace 0``), the window also holds the tracemalloc runs and
five fresh interpreters that import karma and synthesize the inputs
(``setup_s`` is their median wall time); ``norm_wall_s`` sums each
item's median scaled time over the passes.  Traced (``--trace 1``),
untraced and traced passes alternate and the result holds per-layer
figures from the spans plus the tracing overhead.  Every output is
checked (frame count, finite means, symmetric PSD covariances); a failed
check or an exception counts against ``ok_frac`` and the run continues.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run record, the full result
(with per-part figures) and, traced, the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_REPEATS = 16
# mean time of one probe on an idle core of the 2-CPU x86-64 machine the
# benchmark was calibrated on (Python 3.11, numpy 2.4, one BLAS thread)
PROBE_REF_S = 0.56e-3
REGULARIZATION_WARNING = "singular innovation covariance"

# ROADMAP baseline, ms per 10 s utterance (a single Rosenberg utterance,
# default RunConfig, best of 3 on a 2-CPU sandbox)
ROADMAP_BASELINE_MS = {
    "synthesis.synthesize": 68.0,
    "frontend.resample": 14.0,
    "frontend.window_frames": 0.8,
    "pipeline.build_observations": 232.0,
    "tracker.eks_smooth (per call)": 160.0,
    "tracker.estimate_transition": 0.2,
    "pipeline.track_waveform": 704.0,
}


def load_karma():
    """Import karma from this checkout's ``src/``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "karma" / "__init__.py").is_file():
        raise SystemExit(f"karma sources not found under {src}")
    sys.path.insert(0, str(src))
    import karma

    if src.resolve() not in Path(karma.__file__).resolve().parents:
        raise SystemExit(f"imported karma from {karma.__file__}, not from {src}")


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over karma's sources, which names the code when there is no git."""
    digest = hashlib.sha256()
    package = root / "src" / "karma"
    for path in sorted(p for p in package.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "loadavg_1m": os.getloadavg()[0],
    }


def probe_once(np) -> int:
    """Interpreter arithmetic and small dense solves, the mix of karma's per-frame code."""
    total = 0
    for i in range(3000):
        total += i * i
    a = np.full((32, 32), 0.01) + np.eye(32)
    shift = 32.0 * np.eye(32)
    for _ in range(10):
        a = np.linalg.solve(a + shift, a)
    return total


def host_pace() -> float:
    """Mean time of the calibration probe right now.

    A shared host slows this process down by up to about two times, for
    milliseconds to minutes at a time, and slows karma's code and the
    probe alike.  Wall time times ``PROBE_REF_S / pace``, with the pace
    probed on either side of a call, estimates the call's time on an idle
    core.  Raw wall times are kept in the result file.
    """
    import numpy

    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        probe_once(numpy)
    return (time.perf_counter() - start) / PROBE_REPEATS


def scaled(seconds: float, pace_before: float, pace_after: float) -> float:
    return seconds * 2.0 * PROBE_REF_S / (pace_before + pace_after)


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports karma and builds the inputs.

    Not scaled: start-up is mostly imports, which a host slowdown does not
    move in step with the probe (scaled set-up times spread more than raw
    ones).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=170)
    return time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ident: str, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures += [f"{ident}: {reason}" for reason in outcome.reasons]


class Pass:
    """Per item: wall seconds, and seconds scaled to the reference pace."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []


def run_pass(items, scratch, tally, tracer=None, pace=True):
    """One pass over the items; returns (a Pass, outcomes).

    With ``pace``, the host's pace is probed before the first item and
    after each one.
    """
    from workloads import Outcome
    from tracing import ITEM_SPAN

    timed, outcomes = Pass(), []
    before = host_pace() if pace else PROBE_REF_S
    for item in items:
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = item.part.call(item.inner, scratch)
            else:
                with tracer.span(ITEM_SPAN, item=item.ident) as record:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        raw = item.part.call(item.inner, scratch)
                record.attrs["regularizations"] = sum(
                    REGULARIZATION_WARNING in str(w.message) for w in caught
                )
                for w in caught:
                    if REGULARIZATION_WARNING not in str(w.message):
                        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        except Exception:
            traceback.print_exc()
            raw = None
        elapsed = time.perf_counter() - start
        after = host_pace() if pace else PROBE_REF_S
        timed.wall.append(elapsed)
        timed.scaled.append(scaled(elapsed, before, after))
        before = after
        if raw is None:
            outcome = Outcome(item.attempts, item.attempts, ["raised an exception"], {})
        else:
            outcome = item.part.judge(item.inner, raw)
        tally.add(item.ident, outcome)
        outcomes.append(outcome)
    return timed, outcomes


def peak_alloc(workload, items, scratch, tally) -> int:
    """Largest tracemalloc peak over the first item of each part.

    tracemalloc makes a call about four times slower, and a part's items
    are the same size, so one item stands for each part.
    """
    peak = 0
    for item in workload.memory_items(items):
        tracemalloc.start()
        try:
            run_pass([item], scratch, tally, pace=False)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak


def pooled_rmse(outcomes) -> dict[str, float]:
    totals: dict[str, list[float]] = {}
    for outcome in outcomes:
        for name, (sq, n) in outcome.sq_err.items():
            acc = totals.setdefault(name, [0.0, 0])
            acc[0] += sq
            acc[1] += n
    return {name: (sq / n) ** 0.5 for name, (sq, n) in totals.items() if n}


def median_seconds(passes: list[Pass], field: str = "scaled") -> list[float]:
    """Each item's median time over the passes."""
    return [statistics.median(t) for t in zip(*(getattr(p, field) for p in passes))]


class Window:
    """The measuring window: a pass starts only if it should end inside it.

    Every kind of timed pass runs at least twice.  A pass is expected to
    take as long as the last one of its kind.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def fits(self, passes: list[Pass]) -> bool:
        if len(passes) < 2:
            return True
        return time.perf_counter() - self.start + sum(passes[-1].wall) <= self.seconds


def spread(values) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values),
            "max": max(values)}


def by_part(items, values) -> dict[str, list]:
    out: dict[str, list] = {}
    for item, value in zip(items, values):
        out.setdefault(item.part.name, []).append(value)
    return out


def measure_untraced(args, workload, scratch, tally):
    items = workload.build(args.seed)

    # the memory and set-up runs sit between timed passes inside the
    # window; the warm-up pass (cold caches, first calls) is not timed
    side_tasks = [lambda: peak_alloc(workload, items, scratch, tally)]
    side_tasks += [lambda: time_setup(args)] * SETUP_REPEATS
    side_results = []
    passes, window = [], Window(args.seconds)
    run_pass(items, scratch, tally, pace=False)
    while window.fits(passes):
        timed, outcomes = run_pass(items, scratch, tally)
        passes.append(timed)
        if side_tasks:
            side_results.append(side_tasks.pop(0)())
    side_results += [task() for task in side_tasks]
    peak, setups = side_results[0], side_results[1:]

    typical = median_seconds(passes)
    wall_s = sum(typical)
    accuracy = pooled_rmse(outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "norm_wall_s": wall_s,
        "norm_rtf": wall_s / workload.signal_s(items),
        "peak_alloc_mb": peak / 1e6,
        "f_rmse_hz": accuracy["f_rmse_hz"],
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    parts = {}
    part_items, part_outcomes = by_part(items, items), by_part(items, outcomes)
    for name, part_typical in by_part(items, typical).items():
        parts[name] = {
            "norm_wall_s": sum(part_typical),
            "norm_rtf": sum(part_typical) / workload.signal_s(part_items[name]),
            "accuracy_hz": pooled_rmse(part_outcomes[name]),
        }
    extra = {
        "accuracy_hz": accuracy,
        "parts": parts,
        "median_wall_s": sum(median_seconds(passes, "wall")),
        "setup_runs_s": setups,
        "pass_wall_s": spread([sum(p.wall) for p in passes]),
        "pass_scaled_s": spread([sum(p.scaled) for p in passes]),
        "signal_s": workload.signal_s(items),
    }
    return metrics, extra


def measure_traced(args, workload, scratch, tally):
    from tracing import Tracer, layer_metrics
    from workloads import Item

    tracer = Tracer()
    items = []
    with tracer.installed():
        for part in workload.parts:
            with tracer.span("build", item=part.name):
                items += [Item(part, inner) for inner in part.build(args.seed)]

    # the warm-up pass is untraced and not timed
    plain, traced, window = [], [], Window(args.seconds)
    run_pass(items, scratch, tally, pace=False)
    while window.fits(plain if len(plain) <= len(traced) else traced):
        if len(plain) <= len(traced):
            plain.append(run_pass(items, scratch, tally)[0])
        else:
            tracer.pass_index = len(traced)
            with tracer.installed():
                traced.append(run_pass(items, scratch, tally, tracer=tracer)[0])

    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_ms"] = 1e3 * (sum(median_seconds(traced)) - sum(median_seconds(plain)))
    parts = {part.name: layer_metrics(tracer.spans, part.name) for part in workload.parts}
    extra = {
        "untraced_pass_wall_s": spread([sum(p.wall) for p in plain]),
        "traced_pass_wall_s": spread([sum(p.wall) for p in traced]),
        "parts": parts,
    }
    spans_path = OUT_DIR / f"spans_{args.workload}_s{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    if "corpus_ar" in parts:
        n_utterances = sum(item.part.name == "corpus_ar" for item in items)
        extra["baseline_check_ms_per_utterance"] = baseline_check(parts["corpus_ar"], n_utterances)
    return metrics, extra


def baseline_check(metrics: dict, n_utterances: int) -> dict:
    """corpus_ar stage times in the units of the ROADMAP baseline table."""
    ours = {
        "synthesis.synthesize": metrics["synthesis.synthesize.ms"] / n_utterances,
        "frontend.resample": metrics["frontend.resample.ms"] / n_utterances,
        "frontend.window_frames": metrics["frontend.window_frames.ms"] / n_utterances,
        "pipeline.build_observations": metrics["pipeline.build_observations.ms"] / n_utterances,
        "tracker.eks_smooth (per call)": metrics["tracker.eks_smooth.ms"]
        / max(metrics["tracker.eks_smooth.calls"], 1.0),
        "tracker.estimate_transition": metrics["tracker.estimate_transition.ms"] / n_utterances,
        "pipeline.track_waveform": metrics["pipeline.track_waveform.ms"] / n_utterances,
    }
    return {
        stage: {"measured": ours[stage], "roadmap": base, "ratio": ours[stage] / base}
        for stage, base in ROADMAP_BASELINE_MS.items()
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = "1"
    load_karma()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.build(args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        measure = measure_traced if args.trace else measure_untraced
        metrics, extra = measure(args, workload, Path(scratch), tally)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }
    record = run_record(args)
    full = dict(result, record=record, all_metrics=metrics, extra=extra, failures=tally.failures)
    out_path = OUT_DIR / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    out_path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} attempted, {tally.failed} failed")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    for name, entry in reported.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"  {name}: {json.dumps(value)}")
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
